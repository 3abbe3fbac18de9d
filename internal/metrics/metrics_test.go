package metrics

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("apex_queries_total", "Total queries.", L("dataset", "people"), L("outcome", "answered"))
	c.Inc()
	c.Add(2)
	g := r.Gauge("apex_queue_depth", "Pending requests.", L("dataset", "people"))
	g.Set(5)
	g.Add(-2)

	out := r.Render()
	for _, want := range []string{
		"# HELP apex_queries_total Total queries.",
		"# TYPE apex_queries_total counter",
		`apex_queries_total{dataset="people",outcome="answered"} 3`,
		"# TYPE apex_queue_depth gauge",
		`apex_queue_depth{dataset="people"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestSameSeriesIsSameInstance(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "h", L("x", "1"))
	b := r.Counter("c_total", "h", L("x", "1"))
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	if c := r.Counter("c_total", "h", L("x", "2")); c == a {
		t.Fatal("different labels must return a different series")
	}
}

func TestCounterAdvanceToNeverLowers(t *testing.T) {
	c := NewRegistry().Counter("c_total", "h")
	for _, step := range []struct{ to, want float64 }{{3, 3}, {3, 3}, {1, 3}, {7.5, 7.5}} {
		if c.AdvanceTo(step.to); c.Value() != step.want {
			t.Fatalf("AdvanceTo(%v): value %v, want %v", step.to, c.Value(), step.want)
		}
	}
}

func TestHistogramBucketsAreCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1, 10}, L("mech", "LM"))
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	out := r.Render()
	for _, want := range []string{
		`lat_seconds_bucket{mech="LM",le="0.1"} 1`,
		`lat_seconds_bucket{mech="LM",le="1"} 3`,
		`lat_seconds_bucket{mech="LM",le="10"} 4`,
		`lat_seconds_bucket{mech="LM",le="+Inf"} 5`,
		`lat_seconds_sum{mech="LM"} 56.05`,
		`lat_seconds_count{mech="LM"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
}

func TestHandlerServesTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "h").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("conc_total", "h").Inc()
				r.Histogram("conc_hist", "h", []float64{1, 2}).Observe(float64(j % 3))
				_ = r.Render()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("conc_total", "h").Value(); got != 4000 {
		t.Fatalf("counter = %v, want 4000", got)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", "h", []float64{0.1, 0.2, 0.4, 0.8})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	// 100 observations spread uniformly over (0, 0.4]: 25 per bucket up to
	// 0.4, none beyond.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.004)
	}
	// p50 interpolates inside the (0.1, 0.2] bucket: 25 observations below
	// it, rank 50 is at its midpoint.
	if got := h.Quantile(0.5); got < 0.15 || got > 0.25 {
		t.Fatalf("p50 = %v, want ~0.2", got)
	}
	if got := h.Quantile(0.99); got < 0.35 || got > 0.4+1e-9 {
		t.Fatalf("p99 = %v, want within (0.35, 0.4]", got)
	}
	// Observations beyond the last finite bucket clamp to it rather than
	// inventing a value for the +Inf bucket.
	h.Observe(100)
	if got := h.Quantile(1.0); got != 0.8 {
		t.Fatalf("p100 with overflow = %v, want clamp to 0.8", got)
	}
	// Snapshot is self-consistent with the live histogram.
	snap := h.Snapshot()
	if snap.Total != h.Count() || snap.Quantile(0.5) != h.Quantile(0.5) {
		t.Fatalf("snapshot diverges: %+v", snap)
	}
}
