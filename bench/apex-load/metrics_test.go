package main

import (
	"math"
	"testing"
	"time"

	"repro/bench/loadgen"
)

// BENCHMARK.json is the only list of workloads and metrics; what the
// program has to agree with is which workloads loadgen can generate, and
// that the one-shot set-up time carries the widest bound.
func TestBenchmarkFile(t *testing.T) {
	spec, err := readBenchmarkFile("../..")
	if err != nil {
		t.Fatal(err)
	}
	var setup, widest float64
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		widest = max(widest, m.Bound)
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	if setup != widest {
		t.Errorf("setup_s has bound %v; it is a one-shot time and must have the widest (%v)", setup, widest)
	}
	if len(spec.Workloads) != len(loadgen.Workloads(1)) {
		t.Errorf("BENCHMARK.json lists %d workloads, loadgen has %d", len(spec.Workloads), len(loadgen.Workloads(1)))
	}
	for _, w := range spec.Workloads {
		if _, err := loadgen.WorkloadByName(w.Name, 1); err != nil {
			t.Error(err)
		}
	}
}

func TestCompareRefusesAnotherLoad(t *testing.T) {
	a := &resultFile{Machine: machine{NProc: 2}, Seconds: 10, EpsPrefix: map[string]int{"mixed": 40}}
	b := *a
	if err := sameLoad(a, &b); err != nil {
		t.Errorf("equal loads refused: %v", err)
	}
	b.Machine.NProc = 4
	if sameLoad(a, &b) == nil {
		t.Error("sets of 2 and 4 clients were accepted as comparable")
	}
	b = *a
	b.EpsPrefix = map[string]int{"mixed": 2}
	if sameLoad(a, &b) == nil {
		t.Error("sets with prefixes of 40 and 2 requests were accepted as comparable")
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, time.Duration(i))
	}
	for q, want := range map[float64]time.Duration{0.5: 50, 0.95: 95, 0.99: 99, 1: 100, 0: 1} {
		if got := quantile(ds, q); got != want {
			t.Errorf("quantile(%v) = %d, want %d", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing must be 0")
	}
}

// spread must agree with Python's statistics.quantiles(xs, n=4), which the
// benchmark driver uses: for 1..10 the quartiles are 2.75 and 8.25.
func TestSpreadMatchesTheDriver(t *testing.T) {
	xs := []float64{7, 1, 10, 4, 2, 9, 3, 8, 5, 6}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// Three values: quartiles extrapolate to the extremes, as Python does.
	if got, want := spread([]float64{1, 2, 3}), (3.0-1.0)/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of three = %v, want %v", got, want)
	}
}
