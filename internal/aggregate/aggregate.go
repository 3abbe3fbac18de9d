// Package aggregate implements the paper's Appendix E extensions on top of
// the core engine: SUM workloads over bounded attributes, MEDIAN and
// arbitrary quantiles via private CDFs, and the two-step GROUP BY
// (an ICQ to discover non-empty groups followed by a WCQ for their counts).
//
// Each extension is expressed as composition and post-processing of the
// engine's counting queries, so the privacy accounting of the engine covers
// them without new proofs:
//
//   - SUM(A) over A ∈ [0, M] is answered by scaling: a SUM query with
//     accuracy α is a counting query with accuracy α/M on the table where
//     each tuple carries weight A/M... equivalently, APEx answers the count
//     workload with Laplace noise of sensitivity M·‖W‖₁ (one tuple changes
//     a sum by at most M per overlapping predicate).
//   - MEDIAN / QUANTILE(A, q) asks a prefix WCQ over A's bins and inverts
//     the noisy CDF locally (post-processing).
//   - GROUP BY asks ICQ(count > 0 surrogate threshold) then a WCQ restricted
//     to the discovered groups.
package aggregate

import (
	"fmt"
	"math"

	"repro/internal/accuracy"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/workload"
)

// SumResult is the answer to a SUM workload.
type SumResult struct {
	// Sums holds the noisy per-predicate sums.
	Sums []float64
	// Epsilon is the privacy charged.
	Epsilon float64
}

// Sum answers a workload of SUM(attr) aggregates under (α, β) accuracy with
// the Laplace mechanism, charging the engine's budget through its
// accounting hook. attr must be continuous with a finite public domain
// [Min, Max] with Min >= 0; every value is clipped to it (ExactSums), so
// the per-tuple contribution bound is Max.
//
// Sum is implemented directly against the engine's table (not via Ask,
// whose mechanisms are count specific); it charges the engine via
// engine.ChargeExternal, which enforces the same budget invariants, and
// draws its Laplace noise from the engine's random source
// (engine.LaplaceNoise), so the owner's seed policy — crypto-random by
// default on the server — covers aggregates exactly like counting queries.
func Sum(eng *engine.Engine, d *dataset.Table, attr string, preds []dataset.Predicate, req accuracy.Requirement) (*SumResult, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	pos, ok := d.Schema().Lookup(attr)
	if !ok {
		return nil, fmt.Errorf("aggregate: unknown attribute %q", attr)
	}
	a := d.Schema().Attr(pos)
	if a.Kind != dataset.Continuous {
		return nil, fmt.Errorf("aggregate: SUM needs a continuous attribute, %q is %v", attr, a.Kind)
	}
	if a.Min < 0 {
		return nil, fmt.Errorf("aggregate: SUM needs a nonnegative domain, %q has Min %v", attr, a.Min)
	}
	tr, err := workload.Transform(d.Schema(), preds, workload.Options{})
	if err != nil {
		return nil, err
	}
	// Sensitivity of the SUM workload: one tuple contributes at most Max to
	// each of the predicates it satisfies.
	sens := tr.Sensitivity() * a.Max
	l := float64(len(preds))
	eps := 0.0
	if sens > 0 {
		eps = sens * math.Log(1/(1-math.Pow(1-req.Beta, 1/l))) / req.Alpha
	}
	if err := eng.ChargeExternal(eps, eps, fmt.Sprintf("SUM(%s) x%d", attr, len(preds))); err != nil {
		return nil, err
	}
	sums := exactSums(d, tr, pos)
	if eps > 0 {
		b := sens / eps
		for j, z := range eng.LaplaceNoise(b, len(sums)) {
			sums[j] += z
		}
	}
	return &SumResult{Sums: sums, Epsilon: eps}, nil
}

// ExactSums computes the noise-free per-predicate sums of a continuous
// attribute: each row's value, clipped to the attribute's public domain
// [Min, Max] — the per-tuple contribution Sum's sensitivity assumes —
// counts toward every predicate the row satisfies; NULL, non-numeric and
// NaN values count toward none. The workload's scan kernel
// (workload.Transformed.Sums) computes the sums in one pass; a workload it
// does not cover (opaque predicates, grids too large to index) is summed
// row-at-a-time. Either way the result is bit for bit the row path's.
func ExactSums(d *dataset.Table, attr string, preds []dataset.Predicate) ([]float64, error) {
	pos, ok := d.Schema().Lookup(attr)
	if !ok {
		return nil, fmt.Errorf("aggregate: unknown attribute %q", attr)
	}
	if d.Schema().Attr(pos).Kind != dataset.Continuous {
		return nil, fmt.Errorf("aggregate: SUM needs a continuous attribute, %q is categorical", attr)
	}
	tr, err := workload.Transform(d.Schema(), preds, workload.Options{})
	if err != nil { // predicates Transform cannot introspect take the row path
		return rowSums(d, pos, preds), nil
	}
	return exactSums(d, tr, pos), nil
}

// exactSums is ExactSums over a workload Transform has already taken.
func exactSums(d *dataset.Table, tr *workload.Transformed, pos int) []float64 {
	if sums, ok := tr.Sums(d, pos); ok {
		return sums
	}
	return rowSums(d, pos, tr.Predicates())
}

// rowSums is the row-at-a-time path of ExactSums.
func rowSums(d *dataset.Table, pos int, preds []dataset.Predicate) []float64 {
	a := d.Schema().Attr(pos)
	sums := make([]float64, len(preds))
	for i := 0; i < d.Size(); i++ {
		row := d.Row(i)
		v, ok := row[pos].AsNum()
		if ok {
			v, ok = a.Clamp(v)
		}
		if !ok {
			continue
		}
		for j, p := range preds {
			if p.Eval(d.Schema(), row) {
				sums[j] += v
			}
		}
	}
	return sums
}

// QuantileResult is the answer to a quantile query.
type QuantileResult struct {
	// Value is the estimated quantile location (a bin upper edge).
	Value float64
	// CDF holds the noisy cumulative counts the estimate derives from.
	CDF []float64
	// Epsilon is the privacy charged.
	Epsilon float64
}

// Quantile estimates the q-quantile (q ∈ (0,1); 0.5 = MEDIAN) of a
// continuous attribute by asking the engine a prefix WCQ over bins of the
// given width and inverting the noisy CDF — a pure post-processing step, so
// the only privacy cost is the WCQ's.
func Quantile(eng *engine.Engine, attr string, lo, hi, width, q float64, req accuracy.Requirement) (*QuantileResult, error) {
	if q <= 0 || q >= 1 {
		return nil, fmt.Errorf("aggregate: quantile fraction %v out of (0,1)", q)
	}
	preds, err := workload.Prefix1D(attr, lo, hi, width)
	if err != nil {
		return nil, err
	}
	wq, err := query.NewWCQ(preds, req)
	if err != nil {
		return nil, err
	}
	ans, err := eng.Ask(wq)
	if err != nil {
		return nil, err
	}
	total := ans.Counts[len(ans.Counts)-1]
	target := q * total
	val := hi
	for i, c := range ans.Counts {
		if c >= target {
			val = lo + float64(i+1)*width
			break
		}
	}
	return &QuantileResult{Value: val, CDF: ans.Counts, Epsilon: ans.Epsilon}, nil
}

// Median is Quantile at q = 0.5.
func Median(eng *engine.Engine, attr string, lo, hi, width float64, req accuracy.Requirement) (*QuantileResult, error) {
	return Quantile(eng, attr, lo, hi, width, 0.5, req)
}

// GroupByResult is the answer to a two-step GROUP BY.
type GroupByResult struct {
	// Groups holds the discovered group values.
	Groups []string
	// Counts holds the noisy count per discovered group.
	Counts []float64
	// Epsilon is the total privacy charged (ICQ + WCQ).
	Epsilon float64
}

// GroupBy implements Appendix E's GROUP BY: an ICQ discovers the groups of
// a categorical attribute whose count exceeds the threshold, then a WCQ
// fetches their noisy counts. Both steps go through the engine.
func GroupBy(eng *engine.Engine, attr string, values []string, threshold float64, req accuracy.Requirement) (*GroupByResult, error) {
	preds := workload.CategoryPredicates(attr, values)
	icq, err := query.NewICQ(preds, threshold, req)
	if err != nil {
		return nil, err
	}
	sel, err := eng.Ask(icq)
	if err != nil {
		return nil, err
	}
	var groups []string
	var groupPreds []dataset.Predicate
	for i, s := range sel.Selected {
		if s {
			groups = append(groups, values[i])
			groupPreds = append(groupPreds, preds[i])
		}
	}
	total := sel.Epsilon
	if len(groups) == 0 {
		return &GroupByResult{Epsilon: total}, nil
	}
	wcq, err := query.NewWCQ(groupPreds, req)
	if err != nil {
		return nil, err
	}
	counts, err := eng.Ask(wcq)
	if err != nil {
		return nil, err
	}
	total += counts.Epsilon
	return &GroupByResult{Groups: groups, Counts: counts.Counts, Epsilon: total}, nil
}
