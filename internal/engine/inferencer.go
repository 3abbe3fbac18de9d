package engine

import (
	"math"

	"repro/internal/accuracy"
	"repro/internal/query"
	"repro/internal/workload"
)

// The inferencer implements the paper's §9 future-work item (b): reusing
// historical answers to cut the privacy cost of new queries. When enabled
// (Config.Reuse), the engine caches the noisy counts of every answered WCQ
// together with the accuracy it was answered at. A later query over the
// same workload whose requirement is no stricter (α ≥ α_cached and
// β ≥ β_cached) is answered from the cache as pure post-processing — zero
// additional privacy loss:
//
//   - WCQ: the cached counts already satisfy (α_cached, β_cached) ⊆ (α, β).
//   - ICQ: thresholding counts with two-sided error ≤ α_cached (w.p.
//     1-β_cached) mislabels only predicates within ±α_cached ≤ ±α of c.
//   - TCQ: ranking by counts with error ≤ α_cached mislabels only bins
//     within ±2·α_cached of the k-th largest; reuse therefore requires
//     2·α_cached ≤ α for top-k queries.
type cachedAnswer struct {
	counts []float64
	req    accuracy.Requirement
}

// reusable reports whether the cached answer satisfies the new requirement
// for the given query kind.
func (c *cachedAnswer) reusable(q *query.Query) bool {
	if q.Req.Beta < c.req.Beta {
		return false
	}
	switch q.Kind {
	case query.TCQ:
		return 2*c.req.Alpha <= q.Req.Alpha
	default:
		return c.req.Alpha <= q.Req.Alpha
	}
}

// tryReuse answers q from the cache if possible. Caller holds e.mu.
func (e *Engine) tryReuse(q *query.Query, key string) *Answer {
	if !e.reuse {
		return nil
	}
	c, ok := e.answers[key]
	if !ok || !c.reusable(q) {
		return nil
	}
	ans := &Answer{
		Predicates: q.Predicates,
		Epsilon:    0,
		Mechanism:  "cache",
	}
	switch q.Kind {
	case query.WCQ:
		ans.Counts = append([]float64(nil), c.counts...)
	case query.ICQ:
		ans.Selected = accuracy.SelectAbove(c.counts, q.Threshold)
	case query.TCQ:
		ans.Selected = accuracy.SelectTopK(c.counts, q.K)
	}
	return ans
}

// remember stores a WCQ answer for future reuse, keeping the most accurate
// answer per workload. Caller holds e.mu.
func (e *Engine) remember(q *query.Query, key string, counts []float64) {
	if !e.reuse || q.Kind != query.WCQ || counts == nil {
		return
	}
	prev, ok := e.answers[key]
	if ok && !better2D(q.Req, prev.req) {
		return
	}
	e.answers[key] = &cachedAnswer{
		counts: append([]float64(nil), counts...),
		req:    q.Req,
	}
}

// better2D reports whether requirement a dominates b (at least as accurate
// on both axes, strictly better on one).
func better2D(a, b accuracy.Requirement) bool {
	if a.Alpha > b.Alpha || a.Beta > b.Beta {
		return false
	}
	return a.Alpha < b.Alpha || a.Beta < b.Beta
}

// Advise implements the paper's §9 future-work item (a), the query
// recommender's core primitive: it reports the choice the engine would make
// for q (by its mode) and whether the remaining budget covers its worst
// case — without running anything or spending budget.
func (e *Engine) Advise(q *query.Query) (best *Choice, affordable bool, err error) {
	tr, err := e.transform(q, workload.Key(q.Predicates))
	if err != nil {
		return nil, false, err
	}
	// Best as if budget were no object; affordability is reported beside it.
	_, best, err = e.choose(q, tr, math.Inf(1))
	if err != nil || best == nil {
		return nil, false, err
	}
	return best, fits(best.Cost, e.Remaining()), nil
}
