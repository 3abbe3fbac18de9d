package workload

import (
	"sort"

	"repro/internal/dataset"
)

// BatchItem asks for one workload's noise-free evaluations to be warmed:
// the partition histogram and/or the exact per-predicate answers.
type BatchItem struct {
	Tr        *Transformed
	Histogram bool
	Truth     bool
}

// BatchStats reports what one EvaluateBatch actually scanned — the
// scheduler's feed for the scan-bandwidth counters
// (apex_scan_bytes_total / apex_scan_rows_total), the fallback counter
// (apex_scan_fallback_total) and its cold-column release planner.
// Zero-valued when the batch had nothing to warm.
type BatchStats struct {
	// ColumnPasses is the number of physical full-column passes the batch
	// ran: summed over its deduplicated workloads, one per referenced
	// column (the bitmap fallback pays one per predicate and column).
	ColumnPasses int
	// Rows is ColumnPasses × table rows — the numerator of the
	// rows-per-byte bandwidth figure.
	Rows int64
	// ScanBytes is the column storage those passes read: packed words for
	// v2 columns, full-width slices for v1/heap ones, once per (workload,
	// column).
	ScanBytes int64
	// Columns is the deduplicated, sorted set of schema positions the
	// batch planned — what was prefetched, and what the cold-column
	// planner marks as recently hot.
	Columns []int
	// Fallbacks counts, by reason (FallbackReasons), the workloads the
	// batch evaluated outside the scan kernel. Nil when there were none.
	Fallbacks map[string]int
}

// EvaluateBatch warms the noise-free evaluation memos of several
// workloads over one table in one grouped pass of the scan kernel
// (kernel.go): the batch's workloads are deduplicated by identity, each
// reads every column it references exactly once — however many
// predicates it has — and the (workload, morsel) units are spread over
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
// path and counted in BatchStats.Fallbacks, never taken silently.
// Workloads that were not produced by a TransformCache or whose results
// are already memoized are skipped.
//
// Before the scans run, the batch's planned column set is handed to the
// table's column-granular prefetch hook (dataset.Table.PrefetchColumns),
// so an mmap-backed table advises WILLNEED over exactly the byte ranges
// this batch will read and nothing else. The returned BatchStats describe
// the scans that actually ran.
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
		hist := it.Histogram && tr.Materialized() && !tr.memo.ready(&tr.memo.hist, d)
		truth := it.Truth && !tr.memo.ready(&tr.memo.truth, d)
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

	// Plan pass: account the traffic and prefetch only the byte ranges
	// the batch will read, before the first kernel faults a page.
	var stats BatchStats
	seen := make(map[int]bool)
	for _, t := range tasks {
		k := t.tr.kernels()
		if k.fallback != "" {
			if stats.Fallbacks == nil {
				stats.Fallbacks = make(map[string]int)
			}
			stats.Fallbacks[k.fallback]++
		}
		passes, bytes := k.scanTraffic(d)
		stats.ColumnPasses += passes
		stats.ScanBytes += bytes
		for _, pos := range k.cols {
			if !seen[pos] {
				seen[pos] = true
				stats.Columns = append(stats.Columns, pos)
			}
		}
	}
	stats.Rows = int64(stats.ColumnPasses) * int64(d.Size())
	sort.Ints(stats.Columns)
	d.PrefetchColumns(stats.Columns)

	evaluate(d, tasks)

	for _, t := range tasks {
		if t.hist {
			t.tr.memo.get(&t.tr.memo.hist, d).compute(func() ([]float64, error) { return t.x, t.xErr })
		}
		if t.truth {
			t.tr.memo.get(&t.tr.memo.truth, d).compute(func() ([]float64, error) { return t.truths, nil })
		}
	}
	return stats
}
