package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// snapshot is one /metrics scrape: series text (name plus label set,
// exactly as exposed) to value.
type snapshot map[string]float64

func scrape(base string) (snapshot, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: /metrics answered %s", resp.Status)
	}
	snap := make(snapshot)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		snap[line[:i]] = v
	}
	return snap, sc.Err()
}

// delta is the growth of every series between two scrapes of one process.
func delta(before, after snapshot) snapshot {
	d := make(snapshot, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// get reads a family's one series: the unlabelled one, or the one labelled
// with the benchmark's dataset.
func (s snapshot) get(family string) float64 {
	if v, ok := s[family]; ok {
		return v
	}
	return s[family+`{dataset="`+datasetName+`"}`]
}

// phaseSum is the seconds recorded under one phase of the server's
// apex_phase_seconds histogram.
func (s snapshot) phaseSum(phase string) float64 {
	return s[`apex_phase_seconds_sum{phase="`+phase+`"}`]
}

// spanTransport records the client-side spans of one connection's
// requests: when the encoded request entered the transport and when the
// last byte of the reply was read. Each load client owns one, and issues
// one request at a time, so the fields describe the latest request.
type spanTransport struct {
	base      http.RoundTripper
	sent      time.Time
	bodyDone  time.Time
	reqBytes  int64
	respBytes int64
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.sent = time.Now()
	t.reqBytes = req.ContentLength
	t.respBytes = 0
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: t}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	t *spanTransport
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.t.respBytes += int64(n)
	if err == io.EOF {
		b.t.bodyDone = time.Now()
	}
	return n, err
}
