package engine

import (
	"math"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/mechanism"
	"repro/internal/noise"
	"repro/internal/query"
	"repro/internal/strategy"
	"repro/internal/workload"
)

func reuseEngine(t *testing.T, counts []int, budget float64) *Engine {
	t.Helper()
	d := testTable(t, counts)
	e, err := New(d, Config{
		Budget: budget,
		Mode:   Optimistic,
		Rng:    noise.NewRand(17),
		Reuse:  true,
		Mechanisms: []mechanism.Mechanism{
			mechanism.LM{},
			mechanism.NewSM(strategy.H2, 300),
			mechanism.MPM{},
			mechanism.LTM{},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestReuseIdenticalWCQIsFree(t *testing.T) {
	e := reuseEngine(t, []int{100, 200, 300}, 10)
	q := histQuery(t, 3, accuracy.Requirement{Alpha: 30, Beta: 0.05})
	first, err := e.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	spent := e.Spent()
	second, err := e.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	if second.Mechanism != "cache" || second.Epsilon != 0 {
		t.Fatalf("second ask: mech=%s eps=%v, want free cache hit", second.Mechanism, second.Epsilon)
	}
	if e.Spent() != spent {
		t.Fatal("cache hit must not charge")
	}
	for i := range first.Counts {
		if first.Counts[i] != second.Counts[i] {
			t.Fatal("cached counts must be identical")
		}
	}
}

func TestReuseLooserRequirementIsFree(t *testing.T) {
	e := reuseEngine(t, []int{100, 200, 300}, 10)
	strict := histQuery(t, 3, accuracy.Requirement{Alpha: 20, Beta: 0.01})
	if _, err := e.Ask(strict); err != nil {
		t.Fatal(err)
	}
	spent := e.Spent()
	loose := histQuery(t, 3, accuracy.Requirement{Alpha: 50, Beta: 0.05})
	ans, err := e.Ask(loose)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Mechanism != "cache" {
		t.Fatalf("looser query should reuse, got %s", ans.Mechanism)
	}
	if e.Spent() != spent {
		t.Fatal("reuse must be free")
	}
}

func TestNoReuseForStricterRequirement(t *testing.T) {
	e := reuseEngine(t, []int{100, 200, 300}, 10)
	loose := histQuery(t, 3, accuracy.Requirement{Alpha: 50, Beta: 0.05})
	if _, err := e.Ask(loose); err != nil {
		t.Fatal(err)
	}
	strict := histQuery(t, 3, accuracy.Requirement{Alpha: 20, Beta: 0.01})
	ans, err := e.Ask(strict)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Mechanism == "cache" {
		t.Fatal("stricter requirement must not reuse a looser answer")
	}
	if ans.Epsilon == 0 {
		t.Fatal("fresh answer must charge")
	}
}

func TestReuseAnswersICQFromWCQCache(t *testing.T) {
	e := reuseEngine(t, []int{500, 5, 400}, 10)
	wq := histQuery(t, 3, accuracy.Requirement{Alpha: 30, Beta: 0.01})
	if _, err := e.Ask(wq); err != nil {
		t.Fatal(err)
	}
	spent := e.Spent()
	preds, err := workload.Histogram1D("v", 0, 30, 10)
	if err != nil {
		t.Fatal(err)
	}
	iq, err := query.NewICQ(preds, 250, accuracy.Requirement{Alpha: 30, Beta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.Ask(iq)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Mechanism != "cache" {
		t.Fatalf("ICQ over cached workload should reuse, got %s", ans.Mechanism)
	}
	if e.Spent() != spent {
		t.Fatal("ICQ reuse must be free")
	}
	want := []bool{true, false, true}
	for i := range want {
		if ans.Selected[i] != want[i] {
			t.Fatalf("selection %v, want %v", ans.Selected, want)
		}
	}
}

func TestReuseTCQNeedsDoubleAccuracy(t *testing.T) {
	e := reuseEngine(t, []int{500, 5, 400}, 100)
	wq := histQuery(t, 3, accuracy.Requirement{Alpha: 30, Beta: 0.01})
	if _, err := e.Ask(wq); err != nil {
		t.Fatal(err)
	}
	preds, err := workload.Histogram1D("v", 0, 30, 10)
	if err != nil {
		t.Fatal(err)
	}
	// α = 30 cached: a TCQ at α = 50 < 2·30 must NOT reuse...
	tq1, err := query.NewTCQ(preds, 1, accuracy.Requirement{Alpha: 50, Beta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.Ask(tq1)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Mechanism == "cache" {
		t.Fatal("TCQ at alpha < 2*cached must not reuse")
	}
	// ...but a TCQ at α = 60 ≥ 2·30 may.
	tq2, err := query.NewTCQ(preds, 1, accuracy.Requirement{Alpha: 60, Beta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	ans, err = e.Ask(tq2)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Mechanism != "cache" {
		t.Fatalf("TCQ at alpha >= 2*cached should reuse, got %s", ans.Mechanism)
	}
}

func TestReuseDisabledByDefault(t *testing.T) {
	d := testTable(t, []int{100, 200})
	e, err := New(d, Config{Budget: 10, Rng: noise.NewRand(1)})
	if err != nil {
		t.Fatal(err)
	}
	q := histQuery(t, 2, accuracy.Requirement{Alpha: 30, Beta: 0.05})
	if _, err := e.Ask(q); err != nil {
		t.Fatal(err)
	}
	ans, err := e.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Mechanism == "cache" {
		t.Fatal("reuse must be opt-in")
	}
}

func TestReuseStretchesBudget(t *testing.T) {
	// With reuse, an analyst repeating the same query answers many more
	// queries under the same budget.
	q := histQuery(t, 2, accuracy.Requirement{Alpha: 30, Beta: 0.05})
	count := func(reuse bool) int {
		d := testTable(t, []int{100, 200})
		e, err := New(d, Config{Budget: 0.5, Rng: noise.NewRand(2), Reuse: reuse})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for i := 0; i < 100; i++ {
			if _, err := e.Ask(q); err != nil {
				break
			}
			n++
		}
		return n
	}
	with, without := count(true), count(false)
	if with != 100 {
		t.Fatalf("with reuse all 100 repeats should answer, got %d", with)
	}
	if without >= with {
		t.Fatalf("reuse must stretch the budget: %d vs %d", with, without)
	}
}

func TestAdvise(t *testing.T) {
	e := reuseEngine(t, []int{100, 200, 300}, 10)
	q := histQuery(t, 3, accuracy.Requirement{Alpha: 30, Beta: 0.05})
	best, affordable, err := e.Advise(q)
	if err != nil {
		t.Fatal(err)
	}
	if best == nil || !affordable {
		t.Fatalf("advise: %+v affordable=%v", best, affordable)
	}
	if e.Spent() != 0 {
		t.Fatal("advice must be free")
	}
	// The engine's actual choice must agree with the advice.
	ans, err := e.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Mechanism != best.Mechanism.Name() {
		t.Fatalf("advice %s, engine chose %s", best.Mechanism.Name(), ans.Mechanism)
	}
	if math.Abs(ans.EpsilonUpper-best.Cost.Upper) > 1e-12 {
		t.Fatalf("advice cost %v, engine reserved %v", best.Cost.Upper, ans.EpsilonUpper)
	}
}

func TestAdviseUnaffordable(t *testing.T) {
	d := testTable(t, []int{100, 200})
	e, err := New(d, Config{Budget: 1e-6, Rng: noise.NewRand(1)})
	if err != nil {
		t.Fatal(err)
	}
	q := histQuery(t, 2, accuracy.Requirement{Alpha: 5, Beta: 0.001})
	best, affordable, err := e.Advise(q)
	if err != nil {
		t.Fatal(err)
	}
	if best == nil {
		t.Fatal("advice should still name the cheapest mechanism")
	}
	if affordable {
		t.Fatal("tiny budget must be unaffordable")
	}
}
