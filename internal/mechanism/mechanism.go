// Package mechanism implements APEx's suite of differentially private
// mechanisms (paper §5). Every mechanism exposes the two functions of the
// paper's interface:
//
//   - Translate maps a query plus accuracy requirement (α, β) to a lower and
//     upper bound (εl, εu) on the privacy loss the mechanism would incur.
//   - Run executes the mechanism on the data at the cost Translate returned,
//     yielding the noisy answer and the *actual* privacy loss ε (which for
//     data-dependent mechanisms such as the multi-poking mechanism may be
//     below εu).
//
// Implemented mechanisms:
//
//   - LM        — Laplace baseline for WCQ, ICQ, TCQ (Algorithm 2)
//   - SM        — strategy (matrix) mechanism for WCQ and ICQ (Algorithm 3)
//   - MPM       — multi-poking mechanism for ICQ (Algorithm 4)
//   - LTM       — Laplace top-k mechanism for TCQ (Algorithm 5)
package mechanism

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/translate"
	"repro/internal/workload"
)

// Cost is the privacy-loss interval returned by Translate. For
// data-independent mechanisms Lower == Upper; for the multi-poking mechanism
// Lower is the best case (one poke) and Upper the worst case (all pokes).
type Cost struct {
	Lower, Upper float64
}

// Result is a mechanism's output.
type Result struct {
	// Counts holds the noisy per-predicate counts (WCQ only).
	Counts []float64
	// Selected marks the returned bin identifiers (ICQ and TCQ only).
	Selected []bool
	// Epsilon is the actual privacy loss charged for this run.
	Epsilon float64
}

// SelectedPredicates maps the selection mask back to predicates.
func (r *Result) SelectedPredicates(preds []dataset.Predicate) []dataset.Predicate {
	var out []dataset.Predicate
	for i, sel := range r.Selected {
		if sel {
			out = append(out, preds[i])
		}
	}
	return out
}

// Mechanism is the common interface of APEx's translation mechanisms.
type Mechanism interface {
	// Name identifies the mechanism in transcripts and experiment tables.
	Name() string
	// Applicable reports whether this mechanism can answer q given its
	// workload transformation.
	Applicable(q *query.Query, tr *workload.Transformed) bool
	// Translate returns the privacy-loss bounds for answering q with the
	// required accuracy (the mechanism's translate function). It fails
	// with ErrNotApplicable when the mechanism cannot answer q.
	Translate(q *query.Query, tr *workload.Transformed) (Cost, error)
	// Prefetch declares the noise-free evaluations Run reads, so a
	// batching executor can warm the shared per-dataset evaluation cache
	// for many queries in one grouped columnar pass before the mechanisms
	// run. Run evaluates through the same cache, so an unwarmed read is
	// only slower.
	Prefetch(q *query.Query, tr *workload.Transformed) Prefetch
	// Run executes the mechanism (the mechanism's run function) at cost,
	// the value Translate returned for (q, tr) at admission. The returned
	// Result's Epsilon is the actual loss; it never exceeds cost.Upper.
	Run(q *query.Query, tr *workload.Transformed, d *dataset.Table, rng *rand.Rand, cost Cost) (*Result, error)
}

// Prefetch names the noise-free evaluations a mechanism's Run reads from
// the workload transformation: the partition histogram x = T_W(D) and/or
// the exact per-predicate answers.
type Prefetch struct {
	Histogram bool
	Truth     bool
}

// TranslationWarmer is implemented by mechanisms whose Translate reads a
// Monte-Carlo translation plan that can be precomputed. A batching
// scheduler collects every admitted-to-be query's need before admission
// and warms them with one translate.Source.TranslateBatch call per
// source, so all fresh workloads of a batch share one sampling pass.
// Warming is purely an optimization: an unwarmed plan is computed inside
// Translate through the same source.
type TranslationWarmer interface {
	TranslationNeed(q *query.Query, tr *workload.Transformed) (translate.Source, translate.Item, bool)
}

// ErrNotApplicable is returned by Translate when the mechanism cannot
// answer the query (wrong kind, or a required matrix is unavailable).
var ErrNotApplicable = errors.New("mechanism: not applicable to this query")

func notApplicable(name string, q *query.Query) error {
	return fmt.Errorf("%w: %s cannot answer %s", ErrNotApplicable, name, q.Kind)
}
