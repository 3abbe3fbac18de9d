package mechanism

import (
	"testing"

	"repro/internal/accuracy"
	"repro/internal/query"
	"repro/internal/strategy"
	"repro/internal/translate"
	"repro/internal/workload"
)

// Regression for the order-dependent Monte-Carlo seeding bug: the sampler
// used to be seeded from the SM's cache size, so a workload's ε depended
// on how many workloads the same SM had translated before it, and two
// sessions translating the same workload could disagree. Seeds are now
// canonical (translate.SampleSeed), so ε must be bit-equal across
// translation orders and across SM instances.

func (f *fixture) prefixQuery(t *testing.T, bins int, width float64, req accuracy.Requirement) (*query.Query, *workload.Transformed) {
	t.Helper()
	preds, err := workload.Prefix1D("v", 0, width*float64(bins), width)
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.NewWCQ(preds, req)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Transform(f.schema, preds, workload.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return q, tr
}

func TestSMEpsilonOrderIndependent(t *testing.T) {
	f := newFixture(t, []int{10, 20, 30, 40, 10, 20, 30, 40}, 10)
	req := accuracy.Requirement{Alpha: 8, Beta: 0.05}
	qh, trh := f.histogramQuery(t, 8, 10, req)
	qp, trp := f.prefixQuery(t, 8, 10, req)

	// Session 1 translates histogram first; session 2 prefix first; session
	// 3 only ever sees the prefix workload.
	sm1 := NewSM(strategy.H2, 800)
	h1, err := sm1.Translate(qh, trh)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := sm1.Translate(qp, trp)
	if err != nil {
		t.Fatal(err)
	}

	sm2 := NewSM(strategy.H2, 800)
	p2, err := sm2.Translate(qp, trp)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := sm2.Translate(qh, trh)
	if err != nil {
		t.Fatal(err)
	}

	sm3 := NewSM(strategy.H2, 800)
	p3, err := sm3.Translate(qp, trp)
	if err != nil {
		t.Fatal(err)
	}

	if h1.Upper != h2.Upper {
		t.Fatalf("histogram ε depends on translation order: %v vs %v", h1.Upper, h2.Upper)
	}
	if p1.Upper != p2.Upper || p1.Upper != p3.Upper {
		t.Fatalf("prefix ε depends on order or session: %v / %v / %v", p1.Upper, p2.Upper, p3.Upper)
	}
}

// TestSMSharedSourceMatchesPrivate: reading through a shared per-dataset
// cache must not change ε relative to a private one, and a second SM on
// the shared cache must find the plan rather than resample.
func TestSMSharedSourceMatchesPrivate(t *testing.T) {
	f := newFixture(t, []int{10, 20, 30, 40}, 10)
	req := accuracy.Requirement{Alpha: 8, Beta: 0.05}
	q, tr := f.histogramQuery(t, 4, 10, req)

	private := NewSM(strategy.H2, 800)
	cPriv, err := private.Translate(q, tr)
	if err != nil {
		t.Fatal(err)
	}

	shared := translate.NewCache("")
	smA := NewSM(strategy.H2, 800)
	smA.Source = shared
	smB := NewSM(strategy.H2, 800)
	smB.Source = shared
	cA, err := smA.Translate(q, tr)
	if err != nil {
		t.Fatal(err)
	}
	cB, err := smB.Translate(q, tr)
	if err != nil {
		t.Fatal(err)
	}

	if cA.Upper != cPriv.Upper || cB.Upper != cPriv.Upper {
		t.Fatalf("shared-cache ε diverged: private %v, shared %v / %v", cPriv.Upper, cA.Upper, cB.Upper)
	}
	if st := shared.Stats(); st.Misses != 1 {
		t.Fatalf("two SMs on one cache: %+v, want 1 miss", st)
	}
}
