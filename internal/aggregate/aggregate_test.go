package aggregate

import (
	"errors"
	"math"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/noise"
	"repro/internal/workload"
)

func fixture(t *testing.T) (*dataset.Table, *engine.Engine) {
	t.Helper()
	s := dataset.MustSchema(
		dataset.Attribute{Name: "amount", Kind: dataset.Continuous, Min: 0, Max: 100},
		dataset.Attribute{Name: "city", Kind: dataset.Categorical, Values: []string{"NYC", "SF", "LA"}},
	)
	tab := dataset.NewTable(s)
	cities := []string{"NYC", "NYC", "NYC", "SF", "LA"}
	for i := 0; i < 5000; i++ {
		tab.MustAppend(dataset.Tuple{
			dataset.Num(float64(i%100) + 0.5),
			dataset.Str(cities[i%len(cities)]),
		})
	}
	eng, err := engine.New(tab, engine.Config{
		Budget: 500,
		Mode:   engine.Optimistic,
		Rng:    noise.NewRand(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab, eng
}

func TestSumAccuracy(t *testing.T) {
	tab, eng := fixture(t)
	preds := workload.CategoryPredicates("city", []string{"NYC", "SF", "LA"})
	req := accuracy.Requirement{Alpha: 5000, Beta: 0.01}
	res, err := Sum(eng, tab, "amount", preds, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epsilon <= 0 {
		t.Fatal("nonzero sensitivity must charge")
	}
	// True sums: NYC has 3000 rows, SF/LA 1000 each, mean amount ~50.
	trueSums := []float64{0, 0, 0}
	idx, _ := tab.Schema().Lookup("amount")
	for i := 0; i < tab.Size(); i++ {
		row := tab.Row(i)
		v, _ := row[idx].AsNum()
		for j, p := range preds {
			if p.Eval(tab.Schema(), row) {
				trueSums[j] += v
			}
		}
	}
	for j := range trueSums {
		if math.Abs(res.Sums[j]-trueSums[j]) > req.Alpha {
			t.Fatalf("sum %d: noisy %v vs true %v beyond alpha", j, res.Sums[j], trueSums[j])
		}
	}
	if eng.Spent() != res.Epsilon {
		t.Fatal("engine must record the external charge")
	}
}

func TestSumValidation(t *testing.T) {
	tab, eng := fixture(t)
	preds := workload.CategoryPredicates("city", []string{"NYC"})
	req := accuracy.Requirement{Alpha: 100, Beta: 0.01}
	if _, err := Sum(eng, tab, "bogus", preds, req); err == nil {
		t.Fatal("unknown attribute must error")
	}
	if _, err := Sum(eng, tab, "city", preds, req); err == nil {
		t.Fatal("categorical attribute must error")
	}
	if _, err := Sum(eng, tab, "amount", preds, accuracy.Requirement{}); err == nil {
		t.Fatal("invalid requirement must error")
	}
}

func TestSumDeniedWhenBudgetTiny(t *testing.T) {
	tab, _ := fixture(t)
	eng, err := engine.New(tab, engine.Config{Budget: 1e-6, Rng: noise.NewRand(1)})
	if err != nil {
		t.Fatal(err)
	}
	preds := workload.CategoryPredicates("city", []string{"NYC"})
	req := accuracy.Requirement{Alpha: 100, Beta: 0.01}
	if _, err := Sum(eng, tab, "amount", preds, req); !errors.Is(err, engine.ErrDenied) {
		t.Fatalf("want ErrDenied, got %v", err)
	}
	if eng.Spent() != 0 {
		t.Fatal("denied sum must not charge")
	}
}

func TestMedian(t *testing.T) {
	_, eng := fixture(t)
	// amount is uniform over [0,100): median near 50.
	req := accuracy.Requirement{Alpha: 200, Beta: 0.01}
	res, err := Median(eng, "amount", 0, 100, 10, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value < 30 || res.Value > 70 {
		t.Fatalf("median %v, want near 50", res.Value)
	}
	if res.Epsilon <= 0 {
		t.Fatal("median must charge the WCQ cost")
	}
	if len(res.CDF) != 10 {
		t.Fatalf("CDF bins %d", len(res.CDF))
	}
}

func TestQuantileTails(t *testing.T) {
	_, eng := fixture(t)
	req := accuracy.Requirement{Alpha: 200, Beta: 0.01}
	lo, err := Quantile(eng, "amount", 0, 100, 10, 0.1, req)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Quantile(eng, "amount", 0, 100, 10, 0.9, req)
	if err != nil {
		t.Fatal(err)
	}
	if lo.Value >= hi.Value {
		t.Fatalf("q10 %v must be below q90 %v", lo.Value, hi.Value)
	}
	if _, err := Quantile(eng, "amount", 0, 100, 10, 1.5, req); err == nil {
		t.Fatal("q out of range must error")
	}
}

func TestGroupBy(t *testing.T) {
	_, eng := fixture(t)
	req := accuracy.Requirement{Alpha: 300, Beta: 0.01}
	// NYC has 3000 rows, SF and LA 1000 each; threshold 2000 keeps NYC only.
	res, err := GroupBy(eng, "city", []string{"NYC", "SF", "LA"}, 2000, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 || res.Groups[0] != "NYC" {
		t.Fatalf("groups = %v, want [NYC]", res.Groups)
	}
	if math.Abs(res.Counts[0]-3000) > req.Alpha {
		t.Fatalf("NYC count %v, want ~3000", res.Counts[0])
	}
	if res.Epsilon <= 0 {
		t.Fatal("group-by must charge both steps")
	}
}

func TestGroupByNoGroups(t *testing.T) {
	_, eng := fixture(t)
	req := accuracy.Requirement{Alpha: 300, Beta: 0.01}
	res, err := GroupBy(eng, "city", []string{"NYC", "SF", "LA"}, 1e9, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 0 || res.Counts != nil {
		t.Fatalf("got %+v, want empty", res)
	}
}

// TestExactSumsBoundedByNeighbour: Sum's noise is calibrated to one tuple
// moving each predicate's sum by at most the attribute's Max. A
// neighbouring table — one extra row holding 1e9, +Inf, NaN or −5 — must
// keep that bound on every exact sum, over the scan kernel and over the
// row path an opaque predicate takes.
func TestExactSumsBoundedByNeighbour(t *testing.T) {
	s := dataset.MustSchema(
		dataset.Attribute{Name: "tip", Kind: dataset.Continuous, Min: 0, Max: 10},
		dataset.Attribute{Name: "group", Kind: dataset.Categorical, Values: []string{"a", "b"}},
	)
	build := func(extra []dataset.Tuple) *dataset.Table {
		tab := dataset.NewTable(s)
		for i := 0; i < 100; i++ {
			tab.MustAppend(dataset.Tuple{dataset.Num(float64(i % 11)), dataset.Str([]string{"a", "b"}[i%2])})
		}
		for _, row := range extra {
			tab.MustAppend(row)
		}
		return tab
	}
	opaque := dataset.Func{Name: "any", ReadAttrs: []string{"group"}, Fn: func(*dataset.Schema, dataset.Tuple) bool { return true }}
	workloads := map[string][]dataset.Predicate{
		"kernel": workload.CategoryPredicates("group", []string{"a", "b"}),
		"rows":   append(workload.CategoryPredicates("group", []string{"a", "b"}), opaque),
	}
	base := build(nil)
	for name, preds := range workloads {
		before, err := ExactSums(base, "tip", preds)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []float64{1e9, math.Inf(1), math.NaN(), -5} {
			after, err := ExactSums(build([]dataset.Tuple{{dataset.Num(v), dataset.Str("b")}}), "tip", preds)
			if err != nil {
				t.Fatal(err)
			}
			for j := range preds {
				if d := math.Abs(after[j] - before[j]); !(d <= 10) {
					t.Errorf("%s: a row with tip %v moves sum %d (%v) by %v, beyond Max 10", name, v, j, preds[j], d)
				}
			}
		}
	}
}
