package engine

import (
	"repro/internal/query"
	"repro/internal/workload"
)

// ExplainChoice is one applicable mechanism's translated privacy-cost
// interval, as reported by Explain.
type ExplainChoice struct {
	Mechanism    string
	EpsilonLower float64
	EpsilonUpper float64
	Affordable   bool
}

// Explain is the engine's dry-run report for one query: exactly what
// Prepare would decide — translation, mechanism choice, admission — plus
// the predicted scan, with the one difference that nothing is reserved,
// charged, executed or logged. See Engine.Explain.
type Explain struct {
	// Key is the canonical workload key; WorkloadID identifies it in the
	// analytics plane.
	Key string
	// Mechanism is what Prepare would run ("cache" on a reuse hit, ""
	// when the query would be denied).
	Mechanism string
	// EpsilonLower/EpsilonUpper is the chosen mechanism's translated
	// privacy-cost interval; the commit would charge an actual loss
	// within it. Both zero on reuse hits and denials.
	EpsilonLower float64
	EpsilonUpper float64
	// Denied predicts Algorithm 1's "Query Denied": no applicable
	// mechanism's worst case fits the remaining budget.
	Denied bool
	// ReuseHit predicts a free answer from the §9 inferencer cache.
	ReuseHit bool
	// TransformCacheHit / TranslateCacheHit report whether the workload
	// transformation cache and the shared Monte-Carlo translation plane
	// already held this workload — for translation, a plan for its query
	// matrix, whichever predicate text first asked for it — when Explain
	// ran. (Explain itself warms both, exactly like Prepare — that is
	// cache state, not budget.)
	TransformCacheHit bool
	TranslateCacheHit bool
	// Remaining is budget - spent - reserved at peek time: the figure
	// admission would check EpsilonUpper against.
	Remaining float64
	// Sensitivity and Partitions describe the transformed workload
	// (‖W‖₁ and |domW(R)|, -1 when implicit).
	Sensitivity float64
	Partitions  int
	// PlannedColumns is the deduplicated sorted set of schema positions
	// the workload references; PredictedScanBytes is the byte traffic of
	// its noise-free scan — those columns once each, or the projection of
	// that column set when the table already holds it — matching
	// BatchStats accounting exactly when ScanPlanExact. ScanPlanExact is
	// false when the workload would take the row path instead, making the
	// column prediction inapplicable, and for a column set never tried
	// whose projection build may abort (the prediction assumes the build;
	// an abort reads the columns twice); it is true once the set has been
	// tried.
	PlannedColumns     []int
	PredictedScanBytes int64
	ScanPlanExact      bool
	// Choices lists every applicable mechanism's cost interval.
	Choices []ExplainChoice
}

// Explain runs the Prepare path — validation, workload transformation
// (through the shared per-dataset cache), Monte-Carlo translation of
// every applicable mechanism (through the shared translation plane) and
// the admission decision — without reserving budget, executing anything,
// charging any loss or appending to the transcript. The zero-ε guarantee
// is structural: Explain never touches e.spent, e.reserved or the ledger, so
// transcripts and WALs are byte-identical before and after any number of
// Explain calls. A predicted denial is a report (Denied=true), not an
// error, and is NOT logged — unlike Prepare, which records real denials.
func (e *Engine) Explain(q *query.Query) (*Explain, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	key := workload.Key(q.Predicates)
	ex := &Explain{Key: key, TransformCacheHit: e.transforms.Has(key)}
	tr, err := e.transform(q, key)
	if err != nil {
		return nil, err
	}
	ex.Sensitivity = tr.Sensitivity()
	ex.Partitions = tr.NumPartitions()
	ex.PlannedColumns, ex.PredictedScanBytes, ex.ScanPlanExact = tr.ScanPlan(e.data)
	if e.translations != nil {
		ex.TranslateCacheHit = e.translations.Ready(tr.MatrixFingerprint())
	}

	// Reuse peek and budget snapshot under the engine lock, read-only —
	// the one place Prepare and Explain must agree on the numbers.
	e.mu.Lock()
	ex.Remaining = e.budget - e.spent - e.reserved
	if e.reuse {
		if c, ok := e.answers[key]; ok && c.reusable(q) {
			ex.ReuseHit = true
		}
	}
	e.mu.Unlock()
	if ex.ReuseHit {
		ex.Mechanism = "cache"
		return ex, nil
	}

	// Translation outside the lock (like Translations): mechanisms and
	// the transformed workload are immutable, and the shared translation
	// plane serializes itself.
	choices, best, err := e.choose(q, tr, ex.Remaining)
	if err != nil {
		return nil, err
	}
	for _, c := range choices {
		ex.Choices = append(ex.Choices, ExplainChoice{
			Mechanism:    c.Mechanism.Name(),
			EpsilonLower: c.Cost.Lower,
			EpsilonUpper: c.Cost.Upper,
			Affordable:   fits(c.Cost, ex.Remaining),
		})
	}
	if best == nil {
		ex.Denied = true
		return ex, nil
	}
	ex.Mechanism = best.Mechanism.Name()
	ex.EpsilonLower = best.Cost.Lower
	ex.EpsilonUpper = best.Cost.Upper
	return ex, nil
}
