package workload

import "repro/internal/dataset"

// BatchItem asks for one workload's noise-free evaluations to be warmed:
// the partition histogram and/or the exact per-predicate answers.
type BatchItem struct {
	Tr        *Transformed
	Histogram bool
	Truth     bool
}

// BatchStats reports what one EvaluateBatch actually read — the
// scheduler's feed for the scan-bandwidth counters
// (apex_scan_bytes_total / apex_scan_rows_total) and the fallback and
// projection counters (apex_scan_fallback_total,
// apex_scan_projection_total). Zero-valued when the batch had nothing to
// warm.
type BatchStats struct {
	// Workloads is the number of deduplicated workloads the batch
	// evaluated.
	Workloads int
	// ColumnPasses is the number of physical full-column passes the batch
	// ran over the table: summed over its deduplicated workloads, none for
	// one a held projection answered, one per referenced column for one
	// that built its projection or has none, two for one whose build
	// aborted (the bitmap fallback pays one per predicate and column).
	ColumnPasses int
	// Rows is the rows the batch classified, per column read: table rows
	// for every column pass, the projection's rows for a workload a held
	// projection answered — the numerator of the rows-per-byte bandwidth
	// figure.
	Rows int64
	// ScanBytes is the storage behind Rows: packed words, or a raw
	// column's float64s, once per (workload, column); a
	// projection's lanes and weights for a workload it answered.
	ScanBytes int64
	// Fallbacks counts, by reason (FallbackReasons), the workloads the
	// batch evaluated outside the scan kernel. Nil when there were none.
	Fallbacks map[string]int
	// Projections counts, by outcome (dataset.ProjectionOutcomes), the
	// workloads the scan kernel evaluated: answered by a held projection,
	// by one they built first, or — the set being ineligible, or its build
	// aborting — over the table's rows. Nil when there were none.
	Projections map[string]int
}

// EvaluateBatch warms the noise-free evaluation memos of several
// workloads over one table in one grouped pass of the scan kernel
// (kernel.go): the batch's workloads are deduplicated by identity, each
// reads every column it references at most once — however many
// predicates it has; not at all when the table holds a projection of its
// column set (dataset.Table.Projection), whose few weighted rows it
// classifies instead — and the (workload, morsel) units are spread over
// the CPUs, so a lone 12-bin query uses the cores as fully as a batch of
// many. Both the histogram and the true answers of a workload come out of
// that one pass.
//
// The unbatched path is the same kernel run as a batch of one, so
// memoized results — including out-of-domain errors — are bit-for-bit
// what an unbatched evaluation would have produced; later
// Histogram/TrueAnswers calls simply hit the memo. Workloads the kernel
// does not cover (opaque predicates, implicit transformations without a
// component grid, oversized grids) are warmed through their fallback
// path and counted in BatchStats.Fallbacks, never taken silently; nor is
// a column set without a projection (BatchStats.Projections).
// Workloads that were not produced by a TransformCache or whose results
// are already memoized are skipped. The returned BatchStats describe the
// scans that actually ran.
func (c *TransformCache) EvaluateBatch(d *dataset.Table, items []BatchItem) BatchStats {
	// Collection pass: decide what each workload still needs.
	byTr := make(map[*Transformed]*evalTask, len(items))
	var tasks []*evalTask
	for _, it := range items {
		tr := it.Tr
		if tr == nil || tr.memo == nil {
			continue
		}
		// Histogram is only defined for materialized transformations, and
		// anything already memoized needs no work.
		_, histDone := tr.memo.Peek(evalKey{d, false})
		_, truthDone := tr.memo.Peek(evalKey{d, true})
		hist := it.Histogram && tr.Materialized() && !histDone
		truth := it.Truth && !truthDone
		if !hist && !truth {
			continue
		}
		t := byTr[tr]
		if t == nil {
			t = &evalTask{tr: tr}
			byTr[tr] = t
			tasks = append(tasks, t)
		}
		t.hist, t.truth = t.hist || hist, t.truth || truth
	}
	if len(tasks) == 0 {
		return BatchStats{}
	}

	// Plan pass: settle what each workload scans (building a projection
	// the first time an eligible column set is asked for) and account the
	// traffic.
	stats := BatchStats{Workloads: len(tasks)}
	for _, t := range tasks {
		t.bind(d)
		k := t.tr.kernels()
		if k.fallback != "" {
			if stats.Fallbacks == nil {
				stats.Fallbacks = make(map[string]int)
			}
			stats.Fallbacks[k.fallback]++
		} else {
			if stats.Projections == nil {
				stats.Projections = make(map[string]int)
			}
			outcome := t.outcome
			if outcome == dataset.ProjectionAbort {
				outcome = dataset.ProjectionIneligible
			}
			stats.Projections[outcome]++
		}
		passes, rows, bytes := k.scanTraffic(d, t.proj, t.outcome)
		stats.ColumnPasses += passes
		stats.Rows += rows
		stats.ScanBytes += bytes
	}

	scan(d, tasks)

	for _, t := range tasks {
		if t.hist {
			t.tr.memo.Get(evalKey{d, false}, func() ([]float64, int64, error) { return t.x, 1, t.xErr })
		}
		if t.truth {
			t.tr.memo.Get(evalKey{d, true}, func() ([]float64, int64, error) { return t.truths, 1, nil })
		}
	}
	return stats
}
