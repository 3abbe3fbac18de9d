package engine

import (
	"errors"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/mechanism"
	"repro/internal/noise"
	"repro/internal/query"
	"repro/internal/workload"
)

// TestMechanismContract holds every mechanism of the default suite to the
// five-method contract on every query kind: where it is Applicable,
// Translate prices the query, Prefetch names at least one evaluation, and
// Run at that cost charges Lower ≤ ε ≤ Upper; where it is not, Translate
// fails with ErrNotApplicable.
func TestMechanismContract(t *testing.T) {
	d := testTable(t, []int{100, 200, 300, 400})
	req := accuracy.Requirement{Alpha: 40, Beta: 0.05}
	preds := histQuery(t, 4, req).Predicates
	icq, err := query.NewICQ(preds, 250, req)
	if err != nil {
		t.Fatal(err)
	}
	tcq, err := query.NewTCQ(preds, 2, req)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Transform(d.Schema(), preds, workload.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := noise.NewRand(3)
	for _, m := range DefaultMechanisms() {
		answered := 0
		for _, q := range []*query.Query{histQuery(t, 4, req), icq, tcq} {
			cost, err := m.Translate(q, tr)
			if !m.Applicable(q, tr) {
				if !errors.Is(err, mechanism.ErrNotApplicable) {
					t.Errorf("%s on %s: Translate error = %v, want ErrNotApplicable", m.Name(), q.Kind, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s on %s: %v", m.Name(), q.Kind, err)
			}
			answered++
			if m.Prefetch(q, tr) == (mechanism.Prefetch{}) {
				t.Errorf("%s on %s: Prefetch declares nothing", m.Name(), q.Kind)
			}
			res, err := m.Run(q, tr, d, rng, cost)
			if err != nil {
				t.Fatalf("%s on %s: %v", m.Name(), q.Kind, err)
			}
			if cost.Lower <= 0 || res.Epsilon < cost.Lower-epsTol || res.Epsilon > cost.Upper+epsTol {
				t.Errorf("%s on %s: charged ε=%v outside translated [%v, %v]", m.Name(), q.Kind, res.Epsilon, cost.Lower, cost.Upper)
			}
			if (q.Kind == query.WCQ) != (res.Counts != nil) || (q.Kind == query.WCQ) == (res.Selected != nil) {
				t.Errorf("%s on %s: result shape counts=%v selected=%v", m.Name(), q.Kind, res.Counts, res.Selected)
			}
		}
		if answered == 0 {
			t.Errorf("%s applies to no query kind", m.Name())
		}
	}
}
