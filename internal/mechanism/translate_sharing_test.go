package mechanism

import (
	"math"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/dataset"
	"repro/internal/noise"
	"repro/internal/query"
	"repro/internal/strategy"
	"repro/internal/translate"
	"repro/internal/workload"
)

// The translation plane keeps one plan per query matrix, so workloads
// that differ only in their constants share a plan. These tests pin down
// that the sharing is safe: it changes who pays for the sampling, never
// the ε a workload translates to, and never whose predicates get counted.

// sharingFixture is a two-attribute table: v spread over [0,1000) and a
// three-valued categorical, so a workload can carry a categorical filter.
func sharingFixture(t *testing.T) (*dataset.Schema, *dataset.Table) {
	t.Helper()
	states := []string{"CA", "NY", "TX"}
	s := dataset.MustSchema(
		dataset.Attribute{Name: "v", Kind: dataset.Continuous, Min: 0, Max: 1000},
		dataset.Attribute{Name: "state", Kind: dataset.Categorical, Values: states},
	)
	tab := dataset.NewTable(s)
	for i := 0; i < 3000; i++ {
		tab.MustAppend(dataset.Tuple{dataset.Num(float64(i*37%1000) + 0.5), dataset.Str(states[i%7%3])})
	}
	return s, tab
}

// filtered conjoins every predicate with state = val.
func filtered(preds []dataset.Predicate, val string) []dataset.Predicate {
	out := make([]dataset.Predicate, len(preds))
	for i, p := range preds {
		out[i] = dataset.And{p, dataset.StrEq{Attr: "state", Val: val}}
	}
	return out
}

func TestSMSharedPlanAcrossConstants(t *testing.T) {
	s, tab := sharingFixture(t)
	req := accuracy.Requirement{Alpha: 60, Beta: 0.05}
	build := func(f func(string, float64, float64, float64) ([]dataset.Predicate, error)) func(lo, w float64) []dataset.Predicate {
		return func(lo, w float64) []dataset.Predicate {
			preds, err := f("v", lo, lo+8*w, w)
			if err != nil {
				t.Fatal(err)
			}
			return preds
		}
	}
	hist, prefix := build(workload.Histogram1D), build(workload.Prefix1D)
	families := map[string][][]dataset.Predicate{
		"hist":   {hist(100, 10), hist(101.125, 12), hist(400, 50), hist(7, 100)},
		"prefix": {prefix(100, 10), prefix(101.125, 12), prefix(400, 50)},
		// A categorical filter folds every off-filter cell into the
		// all-zero column the unfiltered workload already has: same matrix.
		"prefix+filter": {prefix(100, 10), filtered(prefix(250, 20), "NY"), filtered(prefix(3, 90), "TX")},
	}
	for name, ws := range families {
		t.Run(name, func(t *testing.T) {
			shared := translate.NewCache("")
			var truths [][]float64
			for i, preds := range ws {
				q, err := query.NewWCQ(preds, req)
				if err != nil {
					t.Fatal(err)
				}
				tr, err := workload.Transform(s, preds, workload.Options{})
				if err != nil {
					t.Fatal(err)
				}

				// ε through the shared cache is bit-identical to a private
				// per-workload cache — the seed path.
				private, err := NewSM(strategy.H2, 600).Translate(q, tr)
				if err != nil {
					t.Fatal(err)
				}
				sm := NewSM(strategy.H2, 600)
				sm.Source = shared
				cost, err := sm.Translate(q, tr)
				if err != nil {
					t.Fatal(err)
				}
				if cost != private {
					t.Fatalf("workload %d: shared ε %v, private ε %v", i, cost, private)
				}

				// At a huge ε the noise vanishes, so the answer must be this
				// workload's own true counts — not those of whichever
				// workload first built the plan.
				res, err := sm.Run(q, tr, tab, noise.NewRand(3), Cost{Lower: 1e9, Upper: 1e9})
				if err != nil {
					t.Fatal(err)
				}
				truth := tr.TrueAnswers(tab)
				for j := range truth {
					if math.Abs(res.Counts[j]-truth[j]) > 1e-3 {
						t.Fatalf("workload %d: count[%d] = %v, its own truth is %v", i, j, res.Counts[j], truth[j])
					}
				}
				truths = append(truths, truth)
			}
			if st := shared.Stats(); st.Misses != 1 {
				t.Fatalf("%d same-matrix workloads paid %d samplings, want 1", len(ws), st.Misses)
			}
			// The guard above only bites if the workloads really count
			// different things.
			for i := 1; i < len(truths); i++ {
				same := true
				for j := range truths[i] {
					same = same && truths[i][j] == truths[0][j]
				}
				if same {
					t.Fatalf("fixture: workloads 0 and %d have identical true answers", i)
				}
			}
		})
	}
}
