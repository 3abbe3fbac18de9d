package analytics

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

// requestTrace builds a synthetic finished-trace view shaped like the
// server's real span tree: queue -> scan, then prepare (with nested
// translate), execute, commit (with nested wal_flush).
func requestTrace(id string) obs.TraceView {
	return obs.TraceView{
		ID:   id,
		Name: "POST /v1/sessions/s1/query",
		Tags: map[string]string{
			"dataset": "people", "session": "s1",
			"workload": "wdeadbeef", "query": "BIN D ...", "status": "200",
		},
		Spans: []obs.SpanView{
			{Name: "queue", DurationUS: 1500, Spans: []obs.SpanView{
				{Name: "scan", DurationUS: 400, Attrs: map[string]any{
					"batch_size": 3, "scan_bytes": 3000, "scan_share_bytes": 1000,
				}},
			}},
			{Name: "prepare", DurationUS: 2000, Attrs: map[string]any{
				"transform_cache_hit": true, "reuse_hit": false, "denied": false,
			}, Spans: []obs.SpanView{
				{Name: "translate", DurationUS: 1800, Attrs: map[string]any{
					"translate_cache_hit": true, "mechanism": "LM",
				}},
			}},
			{Name: "execute", DurationUS: 700},
			{Name: "commit", DurationUS: 300, Attrs: map[string]any{"epsilon": 0.25}},
		},
	}
}

func TestExtractCost(t *testing.T) {
	rc, ok := ExtractCost(requestTrace("t1"))
	if !ok {
		t.Fatal("tagged trace not attributed")
	}
	v := rc.Vector
	if rc.Dataset != "people" || rc.Session != "s1" || rc.Workload != "wdeadbeef" {
		t.Fatalf("dimensions = %+v", rc)
	}
	if want := int64((2000 + 700 + 300) * 1000); v.CPUNanos != want {
		t.Fatalf("CPUNanos = %d, want %d (top-level prepare+execute+commit only)", v.CPUNanos, want)
	}
	if want := int64(1500 * 1000); v.QueueNanos != want {
		t.Fatalf("QueueNanos = %d, want %d", v.QueueNanos, want)
	}
	if want := int64(1800 * 1000); v.TranslateNanos != want {
		t.Fatalf("TranslateNanos = %d, want %d", v.TranslateNanos, want)
	}
	if v.ScanBytes != 1000 {
		t.Fatalf("ScanBytes = %d, want the per-request share 1000, not the batch total", v.ScanBytes)
	}
	if v.Epsilon != 0.25 || v.TransformHits != 1 || v.TranslateHits != 1 ||
		v.ReuseHits != 0 || v.Denied != 0 || v.Errors != 0 || v.Requests != 1 {
		t.Fatalf("vector = %+v", v)
	}

	// The same trace after a JSON round trip (attrs decode as float64)
	// must extract identically — bundles and replayed rings stay usable.
	b, err := json.Marshal(requestTrace("t1"))
	if err != nil {
		t.Fatal(err)
	}
	var round obs.TraceView
	if err := json.Unmarshal(b, &round); err != nil {
		t.Fatal(err)
	}
	rc2, ok := ExtractCost(round)
	if !ok || rc2.Vector != v {
		t.Fatalf("JSON round trip changed the vector: %+v vs %+v", rc2.Vector, v)
	}

	// Control-plane traces (no dataset tag) are not attributed.
	if _, ok := ExtractCost(obs.TraceView{ID: "t2", Tags: map[string]string{"status": "200"}}); ok {
		t.Fatal("untagged trace attributed")
	}

	// Error statuses count as errors.
	errv := requestTrace("t3")
	errv.Tags["status"] = "429"
	if rc, _ := ExtractCost(errv); rc.Vector.Errors != 1 {
		t.Fatalf("429 trace: Errors = %d", rc.Vector.Errors)
	}
}

// TestSpaceSavingGuarantee: any key whose true weight exceeds total/k must
// survive in the sketch, and every entry's (weight - maxError) lower bound
// never exceeds its true weight.
func TestSpaceSavingGuarantee(t *testing.T) {
	const k = 8
	sk := newTopK(k)
	truth := map[string]float64{}
	rc := &RequestCost{Dataset: "people"}
	emit := func(key string, w float64) {
		truth[key] += w
		sk.observe(key, w, rc)
	}
	// 64 light keys churning through the sketch, one dominant heavy hitter
	// and one moderate one interleaved.
	for round := 0; round < 50; round++ {
		emit("heavy", 1.0)
		if round%2 == 0 {
			emit("warm", 0.5)
		}
		for i := 0; i < 64; i++ {
			emit(fmt.Sprintf("light-%d", i), 0.01)
		}
	}
	var total float64
	for _, w := range truth {
		total += w
	}
	entries := sk.top(0)
	byKey := map[string]TopEntry{}
	for _, e := range entries {
		byKey[e.Key] = e
	}
	for key, w := range truth {
		if w > total/k {
			if _, ok := byKey[key]; !ok {
				t.Fatalf("heavy hitter %q (true %.2f > total/k %.2f) missing from sketch", key, w, total/k)
			}
		}
	}
	for _, e := range entries {
		if e.WeightCPUSeconds < truth[e.Key]-1e-9 {
			t.Fatalf("%q: counter %.4f underestimates true %.4f", e.Key, e.WeightCPUSeconds, truth[e.Key])
		}
		if e.WeightCPUSeconds-e.MaxErrorCPUSeconds > truth[e.Key]+1e-9 {
			t.Fatalf("%q: lower bound %.4f exceeds true %.4f", e.Key,
				e.WeightCPUSeconds-e.MaxErrorCPUSeconds, truth[e.Key])
		}
	}
	if entries[0].Key != "heavy" {
		t.Fatalf("heaviest entry = %q, want heavy", entries[0].Key)
	}
	if len(entries) > k {
		t.Fatalf("sketch holds %d entries, capacity %d", len(entries), k)
	}
}

func TestCollectorAggregatesAndTop(t *testing.T) {
	c := NewCollector(Config{TopK: 4})
	for i := 0; i < 3; i++ {
		c.Observe(requestTrace(fmt.Sprintf("t%d", i)))
	}
	total := c.Total()
	if total.Requests != 3 || total.ScanBytes != 3000 || total.Epsilon != 0.75 {
		t.Fatalf("total = %+v", total)
	}
	if ds := c.Dataset("people"); ds != total {
		t.Fatalf("single-dataset aggregate %+v != total %+v", ds, total)
	}
	for _, dim := range []string{"dataset", "session", "workload"} {
		entries, err := c.Top(dim, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Cost.Requests != 3 {
			t.Fatalf("Top(%s) = %+v", dim, entries)
		}
	}
	if _, err := c.Top("nope", 10); err == nil {
		t.Fatal("unknown dimension accepted")
	}
	// Nil collector: every call is a quiet no-op.
	var nilC *Collector
	nilC.Observe(requestTrace("t"))
	if v := nilC.Total(); v.Requests != 0 {
		t.Fatal("nil collector accumulated")
	}
}

func TestTimeseriesRing(t *testing.T) {
	ts := NewTimeseries(4, time.Second)
	var n float64
	ts.AddSource(func(put func(string, float64)) { n++; put("n", n) })
	var ticks int
	ts.OnTick(func(time.Time) { ticks++ })
	base := time.Unix(1000, 0)
	for i := 0; i < 6; i++ {
		ts.Tick(base.Add(time.Duration(i) * time.Second))
	}
	if ticks != 6 {
		t.Fatalf("OnTick ran %d times", ticks)
	}
	// Window 4 after 6 ticks: samples 3..6, oldest first.
	all := ts.Snapshot(0)
	if len(all) != 4 {
		t.Fatalf("Snapshot(0) = %d samples", len(all))
	}
	for i, s := range all {
		if want := float64(i + 3); s.Values["n"] != want {
			t.Fatalf("sample %d: n = %v, want %v", i, s.Values["n"], want)
		}
	}
	if !all[0].At.Before(all[3].At) {
		t.Fatal("samples not oldest-first")
	}
	last := ts.Snapshot(2)
	if len(last) != 2 || last[1].Values["n"] != 6 {
		t.Fatalf("Snapshot(2) = %+v", last)
	}
	// Stop without Start must not hang.
	ts.Stop()
}

func TestFlightRecorderCaptureAndPrune(t *testing.T) {
	dir := t.TempDir()
	p99 := time.Duration(0)
	fr := NewFlightRecorder(RecorderConfig{
		Dir:                dir,
		MaxBundles:         2,
		CPUProfileDuration: 5 * time.Millisecond,
		Cooldown:           time.Millisecond,
		Log:                os.Stderr,
		P99Threshold:       50 * time.Millisecond,
		P99:                func() (time.Duration, bool) { return p99, true },
	})
	if fr == nil {
		t.Fatal("recorder with a dir must be live")
	}

	for i := 0; i < 3; i++ {
		if _, err := fr.Capture("p99_latency", map[string]any{"i": i}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // distinct bundle timestamps
	}
	bundles := fr.Bundles()
	if len(bundles) != 2 {
		t.Fatalf("prune kept %d bundles, want 2: %v", len(bundles), bundles)
	}
	// Each surviving bundle holds the goroutine dump and meta record.
	for _, b := range bundles {
		if _, err := os.Stat(filepath.Join(dir, b, "goroutines.txt")); err != nil {
			t.Fatalf("bundle %s: %v", b, err)
		}
		metaB, err := os.ReadFile(filepath.Join(dir, b, "meta.json"))
		if err != nil {
			t.Fatalf("bundle %s: %v", b, err)
		}
		var meta map[string]any
		if err := json.Unmarshal(metaB, &meta); err != nil {
			t.Fatalf("bundle %s meta: %v", b, err)
		}
		if meta["reason"] != "p99_latency" {
			t.Fatalf("bundle %s meta = %+v", b, meta)
		}
	}

	// Threshold checks: below stays quiet, at/above triggers (async).
	before := len(fr.Bundles())
	p99 = 10 * time.Millisecond
	fr.Check(time.Now())
	p99 = 80 * time.Millisecond
	fr.Check(time.Now())
	deadline := time.Now().Add(5 * time.Second)
	for len(fr.Bundles()) <= before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := len(fr.Bundles()); got <= before {
		t.Fatalf("breaching p99 captured nothing (bundles %d)", got)
	}

	// Runtime threshold adjustment.
	fr.SetThresholds(123*time.Millisecond, 7)
	if gotP99, gotQD := fr.Thresholds(); gotP99 != 123*time.Millisecond || gotQD != 7 {
		t.Fatalf("Thresholds() = %v, %d", gotP99, gotQD)
	}

	// Nil recorder (no dir): every call is a no-op.
	var nilFR *FlightRecorder
	nilFR.Check(time.Now())
	nilFR.SetThresholds(time.Second, 1)
	if nilFR.Bundles() != nil || nilFR.Dir() != "" {
		t.Fatal("nil recorder not inert")
	}
	if NewFlightRecorder(RecorderConfig{}) != nil {
		t.Fatal("recorder without a dir must be nil")
	}
}
