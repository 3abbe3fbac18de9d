package mechanism

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/accuracy"
	"repro/internal/dataset"
	"repro/internal/noise"
	"repro/internal/query"
	"repro/internal/strategy"
	"repro/internal/translate"
	"repro/internal/workload"
)

// SM is the strategy-based (matrix) mechanism (Algorithm 3). It answers the
// low-sensitivity strategy workload A with Laplace noise and reconstructs
// the analyst's workload as ω = W·A⁺·(Ax + Lap(‖A‖₁/ε)^l).
//
// Because the reconstruction error is a weighted sum of Laplace variables
// with no closed-form CDF, Translate binary-searches the privacy cost using
// Monte-Carlo simulation of the failure rate (the paper's estimateBeta).
// The simulation exploits that the error scales as 1/ε: one batch of
// normalized error samples Z = ‖W·A⁺·Lap(1)^l‖∞ is drawn per
// (query matrix, strategy) pair and re-thresholded at every ε probed, so
// the binary search costs one matrix-vector product per sample in total.
//
// The samples come from a translate.Source — the per-dataset shared,
// persistent TranslationCache when the server wires one up (Source), or a
// private cache otherwise — which keeps one plan per query matrix: the
// plan supplies A, R and the samples, and is shared by every workload
// whose matrix it is, while the histogram x always comes from the asking
// workload's own predicates. Sampling seeds are canonical
// (translate.SampleSeed): the same matrix translates to the bit-identical
// ε in any session, any process life, and any translation order.
//
// SM answers WCQ directly. It also answers ICQ (the paper's ICQ-SM):
// the analyst thresholds the noisy counts locally, which is post-processing;
// because ICQ accuracy only needs one-sided error, the WCQ translation is
// invoked at 2β (§5.3.1).
type SM struct {
	// Strategy is the strategy matrix family; nil means strategy.H2.
	Strategy strategy.Strategy
	// Samples is the Monte-Carlo sample count N; 0 means DefaultMCSamples.
	Samples int
	// Source, when set, supplies translation plans — typically the
	// per-dataset shared translate.Cache so all sessions pay each
	// workload's sampling once and restarts reload it from the sidecar.
	// Nil means a private in-memory cache.
	Source translate.Source

	srcOnce sync.Once
	src     translate.Source
}

// DefaultMCSamples matches the paper's N = 10000.
const DefaultMCSamples = translate.DefaultSamples

// NewSM returns an SM with the given strategy (nil for H2) and sample count
// (0 for the default).
func NewSM(s strategy.Strategy, samples int) *SM {
	return &SM{Strategy: s, Samples: samples}
}

// Name implements Mechanism.
func (m *SM) Name() string { return "SM-" + m.strat().Name() }

func (m *SM) strat() strategy.Strategy {
	if m.Strategy == nil {
		return strategy.H2
	}
	return m.Strategy
}

func (m *SM) samples() int {
	if m.Samples <= 0 {
		return DefaultMCSamples
	}
	return m.Samples
}

// source returns the plan source, defaulting to a private memory-only
// cache on first use.
func (m *SM) source() translate.Source {
	m.srcOnce.Do(func() {
		m.src = m.Source
		if m.src == nil {
			m.src = translate.NewCache("")
		}
	})
	return m.src
}

// Applicable implements Mechanism: SM needs the materialized workload
// matrix and handles WCQ and ICQ.
func (m *SM) Applicable(q *query.Query, tr *workload.Transformed) bool {
	if q.Kind != query.WCQ && q.Kind != query.ICQ {
		return false
	}
	return tr.Materialized()
}

// plan fetches the translation plan for the workload's query matrix
// through the source.
func (m *SM) plan(tr *workload.Transformed) (*translate.Plan, error) {
	p, err := m.source().Plan(tr, m.strat(), m.samples())
	if err != nil {
		return nil, fmt.Errorf("mechanism: SM: %w", err)
	}
	return p, nil
}

// TranslationNeed implements TranslationWarmer: a batching scheduler
// warms the plan through the source before admission so every fresh
// workload in the batch shares one sampling pass.
func (m *SM) TranslationNeed(q *query.Query, tr *workload.Transformed) (translate.Source, translate.Item, bool) {
	if !m.Applicable(q, tr) {
		return nil, translate.Item{}, false
	}
	return m.source(), translate.Item{Tr: tr, Strategy: m.strat(), Samples: m.samples()}, true
}

// Translate implements Mechanism (Algorithm 3's translate): a binary search
// for the smallest ε whose empirical failure rate, inflated by a normal
// confidence margin, stays below β.
func (m *SM) Translate(q *query.Query, tr *workload.Transformed) (Cost, error) {
	if !m.Applicable(q, tr) {
		return Cost{}, notApplicable(m.Name(), q)
	}
	if err := q.Req.Validate(); err != nil {
		return Cost{}, err
	}
	p, err := m.plan(tr)
	if err != nil {
		return Cost{}, err
	}
	if tr.Sensitivity() == 0 {
		// All-zero workload matrix: reconstruction is exact and free.
		return Cost{}, nil
	}
	alpha, beta := q.Req.Alpha, q.Req.Beta
	if q.Kind == query.ICQ {
		// One-sided accuracy: a WCQ guarantee at 2β gives ICQ accuracy at β.
		beta = 2 * beta
		if beta >= 1 {
			beta = 0.999999
		}
	}
	// Theorem A.1 upper bound: ε ≤ ‖A‖₁·‖WA⁺‖F / (α·math.Sqrt(β/2)).
	hi := p.SensA * p.FrobR / (alpha * math.Sqrt(beta/2))
	lo := 0.0
	if !passes(p, hi, alpha, beta) {
		// The Chebyshev bound should always pass; if MC noise says
		// otherwise, widen until it does.
		for i := 0; i < 60 && !passes(p, hi, alpha, beta); i++ {
			hi *= 2
		}
	}
	for i := 0; i < 60 && hi-lo > 1e-4*hi; i++ {
		mid := (lo + hi) / 2
		if passes(p, mid, alpha, beta) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return Cost{Lower: hi, Upper: hi}, nil
}

// passes is the paper's estimateBeta check: with N normalized error samples
// Z, failure at privacy ε means Z·(‖A‖₁/ε) > α. The empirical rate βe is
// accepted when βe + δβ + p/2 < β with δβ the z_{1-p/2} normal margin and
// p = β/100.
func passes(p *translate.Plan, eps, alpha, beta float64) bool {
	if eps <= 0 {
		return false
	}
	threshold := alpha * eps / p.SensA
	n := len(p.Zs)
	// zs sorted ascending: failures are samples > threshold.
	nf := n - upperBound(p.Zs, threshold)
	be := float64(nf) / float64(n)
	pp := beta / 100
	z := noise.ZScore(pp / 2)
	db := z * math.Sqrt(be*(1-be)/float64(n))
	return be+db+pp/2 < beta
}

// Prefetch implements Mechanism: SM reads the partition histogram.
func (*SM) Prefetch(*query.Query, *workload.Transformed) Prefetch {
	return Prefetch{Histogram: true}
}

// Run implements Mechanism (Algorithm 3's run).
func (m *SM) Run(q *query.Query, tr *workload.Transformed, d *dataset.Table, rng *rand.Rand, cost Cost) (*Result, error) {
	eps := cost.Upper
	p, err := m.plan(tr)
	if err != nil {
		return nil, err
	}
	rec, err := p.Reconstruction()
	if err != nil {
		return nil, fmt.Errorf("mechanism: SM: %w", err)
	}
	x, err := tr.Histogram(d)
	if err != nil {
		return nil, err
	}
	ax, err := rec.A.MulVec(x)
	if err != nil {
		return nil, err
	}
	if eps > 0 {
		b := rec.SensA / eps
		for i := range ax {
			ax[i] += noise.Laplace(rng, b)
		}
	}
	omega, err := rec.R.MulVec(ax)
	if err != nil {
		return nil, err
	}
	res := &Result{Epsilon: eps}
	switch q.Kind {
	case query.WCQ:
		res.Counts = omega
	case query.ICQ:
		res.Selected = accuracy.SelectAbove(omega, q.Threshold)
	}
	return res, nil
}

// upperBound returns the number of elements in sorted xs that are <= v.
func upperBound(xs []float64, v float64) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := (lo + hi) / 2
		if xs[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
