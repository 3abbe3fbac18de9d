package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// spread is the interquartile range of xs as a share of their median —
// the run-to-run noise a difference of medians has to clear. Quartiles
// are Python's statistics.quantiles(xs, n=4) (the exclusive method), as
// the benchmark driver computes them.
func spread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k*(n+1))/4 - 1 // zero-based position of the k-th quartile
		i := int(math.Floor(pos))
		i = min(max(i, 0), n-2)
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return math.Abs(ratio(q(3)-q(1), median(s)))
}

// sameLoad refuses two sets taken under different loads: the client
// count is the processor count, and a window or prefix of another length
// measures something else.
func sameLoad(a, b *resultFile) error {
	switch {
	case a.Machine.NProc != b.Machine.NProc:
		return fmt.Errorf("the sets ran %d and %d clients (nproc)", a.Machine.NProc, b.Machine.NProc)
	case a.Seconds != b.Seconds:
		return fmt.Errorf("the sets measured windows of %v s and %v s", a.Seconds, b.Seconds)
	}
	for w, n := range a.EpsPrefix {
		if m := b.EpsPrefix[w]; m != n {
			return fmt.Errorf("%s: the sets take eps_per_query over prefixes of %d and %d requests", w, n, m)
		}
	}
	return nil
}

// exact says whether every value of xs is the same number, bit for bit.
func exact(xs ...float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}

// compare gates result set b against a: for every (workload, metric) it
// prints both medians and spreads, and judges the change of median in the
// metric's worse direction against the bound BENCHMARK.json fixes. Where
// either set's own spread exceeds the bound the pair is unresolved, not
// unchanged. A set repeats one seed, so within it — and across two sets
// of the same seed — eps_per_query has no bound at all: every run must
// report the same number to the last bit. Any regression makes the
// command fail.
func compare(spec *benchmarkFile, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	if err := sameLoad(a, b); err != nil {
		return fmt.Errorf("%s and %s cannot be compared: %w", pathA, pathB, err)
	}
	fmt.Printf("%-16s %-18s %12s %8s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "median a", "spread", "median b", "spread", "worse", "bound", "verdict")
	regressions, unresolved := 0, 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := a.EndToEnd[w.Name][m.Name], b.EndToEnd[w.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Printf("%-16s %-18s missing from one of the sets\n", w.Name, m.Name)
				regressions++
				continue
			}
			ma, mb := median(xa), median(xb)
			sa, sb := spread(xa), spread(xb)
			worse := ratio(mb-ma, ma) // share of a's median by which b is worse
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case m.Name == "eps_per_query" && !(exact(xa...) && exact(xb...) && (a.Seed != b.Seed || xa[0] == xb[0])):
				verdict = "NOT EXACT"
				regressions++
			case max(sa, sb) > m.Bound:
				verdict = "unresolved"
				unresolved++
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Printf("%-16s %-18s %12.5g %7.1f%% %12.5g %7.1f%% %+7.1f%% %6.1f%%  %s\n",
				w.Name, m.Name, ma, sa*100, mb, sb*100, worse*100, m.Bound*100, verdict)
		}
	}
	fmt.Printf("%d regressions, %d unresolved\n", regressions, unresolved)
	if regressions > 0 {
		return fmt.Errorf("%s regresses against %s", pathB, pathA)
	}
	return nil
}
