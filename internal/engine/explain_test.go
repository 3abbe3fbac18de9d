package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/query"
	"repro/internal/workload"
)

// TestExplainMatchesPrepare: Explain promises "exactly what Prepare would
// decide". Over every query kind, both modes and a ladder of remaining
// budgets — ample, between each pair of the mechanisms' worst cases (so
// the mode's favourite is unaffordable and a dearer-looking one must
// win), and below all of them (denial) — the mechanism and ε interval
// Explain reports are the Plan the following Prepare returns.
func TestExplainMatchesPrepare(t *testing.T) {
	d := testTable(t, []int{500, 400, 300, 200, 100, 50, 40, 30, 20, 10})
	preds, err := workload.Histogram1D("v", 0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	req := accuracy.Requirement{Alpha: 40, Beta: 0.02}
	wcq, err := query.NewWCQ(preds, req)
	if err != nil {
		t.Fatal(err)
	}
	icq, err := query.NewICQ(preds, 150, req)
	if err != nil {
		t.Fatal(err)
	}
	tcq, err := query.NewTCQ(preds, 3, req)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*query.Query{wcq, icq, tcq} {
		choices, err := newEngine(t, d, 1, Pessimistic).Translations(q)
		if err != nil {
			t.Fatal(err)
		}
		var uppers []float64
		for _, c := range choices {
			uppers = append(uppers, c.Cost.Upper)
		}
		sort.Float64s(uppers)
		budgets := []float64{uppers[0] / 2, 1000}
		for i := 1; i < len(uppers); i++ {
			budgets = append(budgets, (uppers[i-1]+uppers[i])/2)
		}
		for _, mode := range []Mode{Pessimistic, Optimistic} {
			for _, budget := range budgets {
				t.Run(fmt.Sprintf("%v/%v/remaining=%.4g", q.Kind, mode, budget), func(t *testing.T) {
					e := newEngine(t, d, budget, mode)
					ex, err := e.Explain(q)
					if err != nil {
						t.Fatal(err)
					}
					if ex.Remaining != budget || len(ex.Choices) != len(choices) {
						t.Fatalf("explain: remaining %v, %d choices; want %v, %d", ex.Remaining, len(ex.Choices), budget, len(choices))
					}
					plan, ans, err := e.Prepare(context.Background(), q)
					if ex.Denied {
						if !errors.Is(err, ErrDenied) || budget >= uppers[0] {
							t.Fatalf("explain predicted denial at remaining %v; prepare: plan=%v err=%v", budget, plan, err)
						}
						return
					}
					if err != nil || ans != nil {
						t.Fatalf("explain predicted %s; prepare: ans=%v err=%v", ex.Mechanism, ans, err)
					}
					defer e.Abort(plan)
					if plan.Mechanism.Name() != ex.Mechanism || plan.Cost.Lower != ex.EpsilonLower || plan.Cost.Upper != ex.EpsilonUpper {
						t.Fatalf("explain: %s [%v, %v]; prepare: %s [%v, %v]", ex.Mechanism, ex.EpsilonLower, ex.EpsilonUpper,
							plan.Mechanism.Name(), plan.Cost.Lower, plan.Cost.Upper)
					}
				})
			}
		}
	}
}
