package mechanism

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/accuracy"
	"repro/internal/dataset"
	"repro/internal/noise"
	"repro/internal/query"
	"repro/internal/workload"
)

// LM is the baseline Laplace mechanism (Algorithm 2). It answers all three
// query types by adding Lap(‖W‖₁/ε) noise to the true workload counts; for
// ICQ/TCQ the noisy counts are thresholded / top-k-ed as post-processing.
type LM struct{}

// Name implements Mechanism.
func (LM) Name() string { return "LM" }

// Applicable implements Mechanism: LM answers every query type and needs no
// materialized matrix (only the sensitivity and true counts).
func (LM) Applicable(q *query.Query, tr *workload.Transformed) bool {
	return q.Kind == query.WCQ || q.Kind == query.ICQ || q.Kind == query.TCQ
}

// Translate implements Mechanism (Algorithm 2's translate). The bounds are
// data independent, so Lower == Upper:
//
//	WCQ: ε = ‖W‖₁ · ln(1/(1-(1-β)^{1/L})) / α
//	ICQ: ε = ‖W‖₁ · (ln(1/(1-(1-β)^{1/L})) - ln 2) / α
//	TCQ: ε = ‖W‖₁ · 2·ln(L/(2β)) / α
func (m LM) Translate(q *query.Query, tr *workload.Transformed) (Cost, error) {
	if !m.Applicable(q, tr) {
		return Cost{}, notApplicable(m.Name(), q)
	}
	if err := q.Req.Validate(); err != nil {
		return Cost{}, err
	}
	sens := tr.Sensitivity()
	if sens == 0 {
		// No tuple in the public domain satisfies any workload predicate:
		// the exact answer is data independent and free.
		return Cost{}, nil
	}
	alpha, beta := q.Req.Alpha, q.Req.Beta
	l := float64(q.L())
	var eps float64
	switch q.Kind {
	case query.WCQ:
		eps = sens * lnInvUnionBound(beta, l) / alpha
	case query.ICQ:
		eps = sens * (lnInvUnionBound(beta, l) - math.Ln2) / alpha
	case query.TCQ:
		eps = sens * 2 * math.Log(l/(2*beta)) / alpha
	}
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return Cost{}, fmt.Errorf("mechanism: LM translation produced invalid epsilon %v (alpha=%v beta=%v L=%v)", eps, alpha, beta, l)
	}
	return Cost{Lower: eps, Upper: eps}, nil
}

// lnInvUnionBound computes ln(1/(1-(1-β)^{1/L})), the per-query tail budget
// after a union bound over L queries. For tiny β/L this approaches ln(L/β).
func lnInvUnionBound(beta, l float64) float64 {
	// 1-(1-β)^{1/L} = -expm1(log1p(-β)/L), computed stably.
	inner := -math.Expm1(math.Log1p(-beta) / l)
	return -math.Log(inner)
}

// Prefetch implements Mechanism: LM reads the exact workload answers.
func (LM) Prefetch(*query.Query, *workload.Transformed) Prefetch {
	return Prefetch{Truth: true}
}

// Run implements Mechanism (Algorithm 2's run).
func (LM) Run(q *query.Query, tr *workload.Transformed, d *dataset.Table, rng *rand.Rand, cost Cost) (*Result, error) {
	eps := cost.Upper
	truth := tr.TrueAnswers(d)
	noisy := make([]float64, len(truth))
	if eps == 0 {
		// Zero-sensitivity workload: the exact (all-zero) answer is free.
		copy(noisy, truth)
	} else {
		b := tr.Sensitivity() / eps
		for i, v := range truth {
			noisy[i] = v + noise.Laplace(rng, b)
		}
	}
	res := &Result{Epsilon: eps}
	switch q.Kind {
	case query.WCQ:
		res.Counts = noisy
	case query.ICQ:
		res.Selected = accuracy.SelectAbove(noisy, q.Threshold)
	case query.TCQ:
		res.Selected = accuracy.SelectTopK(noisy, q.K)
	}
	return res, nil
}

// LTM is the Laplace top-k mechanism (Algorithm 5), a generalized
// report-noisy-max: noise Lap(k/ε) is added to the true counts and only the
// k top bin identifiers are released (never the counts), so the privacy
// cost is independent of the workload sensitivity.
type LTM struct{}

// Name implements Mechanism.
func (LTM) Name() string { return "LTM" }

// Applicable implements Mechanism.
func (LTM) Applicable(q *query.Query, tr *workload.Transformed) bool {
	return q.Kind == query.TCQ
}

// Translate implements Mechanism: ε = 2k·ln(L/(2β))/α, data independent.
func (m LTM) Translate(q *query.Query, tr *workload.Transformed) (Cost, error) {
	if !m.Applicable(q, tr) {
		return Cost{}, notApplicable(m.Name(), q)
	}
	if err := q.Req.Validate(); err != nil {
		return Cost{}, err
	}
	l := float64(q.L())
	eps := 2 * float64(q.K) * math.Log(l/(2*q.Req.Beta)) / q.Req.Alpha
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return Cost{}, fmt.Errorf("mechanism: LTM translation produced invalid epsilon %v", eps)
	}
	return Cost{Lower: eps, Upper: eps}, nil
}

// Prefetch implements Mechanism: LTM reads the exact workload answers.
func (LTM) Prefetch(*query.Query, *workload.Transformed) Prefetch {
	return Prefetch{Truth: true}
}

// Run implements Mechanism.
func (LTM) Run(q *query.Query, tr *workload.Transformed, d *dataset.Table, rng *rand.Rand, cost Cost) (*Result, error) {
	eps := cost.Upper
	b := float64(q.K) / eps
	truth := tr.TrueAnswers(d)
	noisy := make([]float64, len(truth))
	for i, v := range truth {
		noisy[i] = v + noise.Laplace(rng, b)
	}
	return &Result{
		Selected: accuracy.SelectTopK(noisy, q.K),
		Epsilon:  eps,
	}, nil
}

var (
	_ Mechanism = LM{}
	_ Mechanism = LTM{}
)
