package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef is one metric the benchmark reports, as BENCHMARK.json lists
// it. The file is the only list: end-to-end metrics are what an analyst
// (latency, throughput, ε) and an owner (CPU, memory, set-up and recovery
// time) see; per-layer metrics are prefixed by the layer (internal/<layer>)
// they describe, with "replay" marking a number from the in-process layer
// replay, not from the server under load. Names are frozen: later changes
// are judged by them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// benchmarkFile is BENCHMARK.json, the benchmark's contract with its driver.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// values holds one run's metrics by name.
type values map[string]float64

// resultLine is the object the driver reads from the last line of stdout.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line renders the defined metrics of v; a metric the run did not produce
// is an error, so a renamed or forgotten metric cannot pass silently.
func line(defs []metricDef, v values, correct bool, attempted, failed int) (*resultLine, error) {
	out := &resultLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		x, ok := v[d.Name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s was not measured (value %v)", d.Name, x)
		}
		out.Metrics[d.Name] = metricValue{Value: x, Unit: d.Unit}
	}
	return out, nil
}

// quantile returns the q-quantile of sorted durations by the nearest-rank
// method, so the reported value is a latency that actually occurred.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0: a phase that never ran has no mean.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
