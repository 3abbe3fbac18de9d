package workload

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// TestEvaluateBatchMatchesUnbatched is the batched-path differential
// test: warming many workloads' memos through one EvaluateBatch (one
// fan-out of (workload, morsel) units) must leave Histogram and
// TrueAnswers bit-for-bit equal to a cache that evaluated each workload
// on its own. Workloads deliberately overlap in predicates.
func TestEvaluateBatchMatchesUnbatched(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := columnarSchema(t)
	for trial := 0; trial < 20; trial++ {
		d := randDomainTable(rng, s, 150+rng.Intn(250))
		// A pool of predicates shared across the batch's workloads plus
		// per-workload extras: realistic overlap for the dedup to find.
		pool := randWorkload(rng, s, 6)
		var batchPreds [][]dataset.Predicate
		for w := 0; w < 5; w++ {
			preds := append([]dataset.Predicate{}, pool[:2+rng.Intn(4)]...)
			preds = append(preds, randWorkload(rng, s, 1+rng.Intn(3))...)
			batchPreds = append(batchPreds, preds)
		}

		batched := NewTransformCache(Options{})
		plain := NewTransformCache(Options{})
		var items []BatchItem
		var trsB, trsP []*Transformed
		for _, preds := range batchPreds {
			trB, err := batched.Transform(s, Key(preds), preds)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			trP, err := plain.Transform(s, Key(preds), preds)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			trsB, trsP = append(trsB, trB), append(trsP, trP)
			items = append(items, BatchItem{Tr: trB, Histogram: true, Truth: true})
		}
		batched.EvaluateBatch(d, items)

		for w := range trsB {
			gotT, wantT := trsB[w].TrueAnswers(d), trsP[w].TrueAnswers(d)
			for j := range wantT {
				if gotT[j] != wantT[j] {
					t.Fatalf("trial %d workload %d: batched TrueAnswers[%d] = %v, unbatched %v",
						trial, w, j, gotT[j], wantT[j])
				}
			}
			if !trsB[w].Materialized() {
				continue
			}
			gotH, errB := trsB[w].Histogram(d)
			wantH, errP := trsP[w].Histogram(d)
			if (errB == nil) != (errP == nil) {
				t.Fatalf("trial %d workload %d: batched err %v, unbatched %v", trial, w, errB, errP)
			}
			for p := range wantH {
				if gotH[p] != wantH[p] {
					t.Fatalf("trial %d workload %d: batched Histogram[%d] = %v, unbatched %v",
						trial, w, p, gotH[p], wantH[p])
				}
			}
		}
	}
}

// TestEvaluateBatchErrorParity: a tuple outside the public domain must
// produce the identical error through the batched warmup.
func TestEvaluateBatchErrorParity(t *testing.T) {
	s := columnarSchema(t)
	d := dataset.NewTable(s)
	d.MustAppend(dataset.Tuple{dataset.Num(30), dataset.Str("CA"), dataset.Num(10)})
	d.MustAppend(dataset.Tuple{dataset.Num(200), dataset.Str("CA"), dataset.Num(10)})
	preds := []dataset.Predicate{dataset.NumCmp{Attr: "age", Op: dataset.Ge, C: 150}}

	c := NewTransformCache(Options{})
	tr, err := c.Transform(s, Key(preds), preds)
	if err != nil {
		t.Fatal(err)
	}
	c.EvaluateBatch(d, []BatchItem{{Tr: tr, Histogram: true}})
	_, errBatched := tr.Histogram(d)

	trPlain, err := Transform(s, preds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, errPlain := trPlain.Histogram(d)
	if errBatched == nil || errPlain == nil {
		t.Fatalf("expected out-of-domain error on both paths, got batched %v, plain %v", errBatched, errPlain)
	}
	if errBatched.Error() != errPlain.Error() {
		t.Fatalf("error text differs:\nbatched: %v\nplain:   %v", errBatched, errPlain)
	}
}

// TestEvaluateBatchCountsFallbacks: workloads the scan kernel does not
// cover — an opaque predicate, an implicit transformation without a
// component grid — are warmed through their fallback path and counted,
// never taken silently; foreign and nil Transformeds are skipped; a
// workload listed twice is evaluated once.
func TestEvaluateBatchCountsFallbacks(t *testing.T) {
	s := columnarSchema(t)
	rng := rand.New(rand.NewSource(7))
	d := randDomainTable(rng, s, 100)

	c := NewTransformCache(Options{MaxCellsPerComponent: 8})
	// An opaque Func predicate: only the row path can evaluate it.
	f := breakpointFunc{
		Func: dataset.Func{
			Name:      "always",
			ReadAttrs: []string{"age"},
			Fn:        func(*dataset.Schema, dataset.Tuple) bool { return true },
		},
		bps: map[string][]float64{"age": {50}},
	}
	opaque := []dataset.Predicate{f}
	trFunc, err := c.Transform(s, Key(opaque), opaque)
	if err != nil {
		t.Fatal(err)
	}
	// A component grid above the (lowered) enumeration cap: implicit, no
	// components, one kernel pass per predicate.
	bins, err := Histogram1D("gain", 0, 1000, 100)
	if err != nil {
		t.Fatal(err)
	}
	trImplicit, err := c.Transform(s, Key(bins), bins)
	if err != nil {
		t.Fatal(err)
	}
	if trImplicit.Materialized() || trImplicit.comps != nil {
		t.Fatal("expected an implicit transformation without components")
	}
	kernel := []dataset.Predicate{dataset.Range{Attr: "age", Lo: 0, Hi: 50}}
	trKernel, err := c.Transform(s, Key(kernel), kernel)
	if err != nil {
		t.Fatal(err)
	}
	// A Transformed built outside any cache (no memo).
	trForeign, err := Transform(s, []dataset.Predicate{dataset.Range{Attr: "age", Lo: 0, Hi: 50}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := c.EvaluateBatch(d, []BatchItem{
		{Tr: trFunc, Histogram: true, Truth: true},
		{Tr: trImplicit, Histogram: true, Truth: true},
		{Tr: trKernel, Histogram: true},
		{Tr: trKernel, Truth: true},
		{Tr: trForeign, Histogram: true, Truth: true},
		{Tr: nil, Histogram: true},
	})
	if st.Fallbacks[FallbackOpaque] != 1 || st.Fallbacks[FallbackImplicit] != 1 || len(st.Fallbacks) != 2 {
		t.Fatalf("fallbacks = %v, want one opaque and one implicit", st.Fallbacks)
	}
	// One pass over gain per bin plus the kernel's pass over age — two
	// when the table's attempt to project age aborts first.
	agePasses := 1
	if _, outcome := d.PlannedProjection(trKernel.kernels().cols); outcome == dataset.ProjectionIneligible {
		agePasses = 2
	}
	if st.ColumnPasses != len(bins)+agePasses {
		t.Fatalf("passes = %d, want %d", st.ColumnPasses, len(bins)+agePasses)
	}
	for _, tr := range []*Transformed{trFunc, trImplicit, trKernel} {
		if _, ok := tr.memo.Peek(evalKey{d, true}); !ok {
			t.Fatalf("workload %v was not warmed", tr.preds)
		}
		got, want := tr.TrueAnswers(d), tr.TrueAnswersRows(d)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("workload %v: TrueAnswers[%d] = %v, rows %v", tr.preds, j, got[j], want[j])
			}
		}
	}
	if _, bytes, ok := trImplicit.ScanPlan(d); !ok || bytes != int64(len(bins))*d.ColumnScanBytes(2) {
		t.Fatalf("implicit ScanPlan = %d bytes, ok %v", bytes, ok)
	}
}

// TestBatchStatsProjectionOutcomes: the one accounting holds, and ScanPlan
// predicts it exactly once a set's outcome is known, on all three
// projection outcomes — a build reads each column of the set once, a hit
// no column but the projection's own lanes and weights, an ineligible set
// what it always did (and the build that found it so, its columns twice)
// — and every kernel workload is counted under exactly one of them.
func TestBatchStatsProjectionOutcomes(t *testing.T) {
	s := kernelSchema(t)
	d, rows := kernelTable(rand.New(rand.NewSource(5)), s, 3*morselRows, false)
	agePos, _ := s.Lookup("age")
	gainPos, _ := s.Lookup("gain")
	bins := func(attr string, lo, width float64) []dataset.Predicate {
		preds, err := Histogram1D(attr, lo, lo+6*width, width)
		if err != nil {
			t.Fatal(err)
		}
		return preds
	}
	cache := NewTransformCache(Options{})
	evaluate := func(label string, preds ...[]dataset.Predicate) (BatchStats, int64) {
		t.Helper()
		var items []BatchItem
		var predicted int64
		for _, p := range preds {
			tr, err := cache.Transform(s, Key(p), p)
			if err != nil {
				t.Fatal(err)
			}
			_, bytes, ok := tr.ScanPlan(d)
			if !ok {
				t.Fatalf("%s: no scan plan", label)
			}
			predicted += bytes
			items = append(items, BatchItem{Tr: tr, Histogram: true, Truth: true})
		}
		st := cache.EvaluateBatch(d, items)
		for _, it := range items {
			checkKernelAgainstRows(t, label, it.Tr, d, rows)
		}
		return st, predicted
	}
	check := func(label string, st BatchStats, want BatchStats) {
		t.Helper()
		if st.Workloads != want.Workloads || st.ColumnPasses != want.ColumnPasses || st.Rows != want.Rows ||
			st.ScanBytes != want.ScanBytes ||
			fmt.Sprint(st.Projections) != fmt.Sprint(want.Projections) || st.Fallbacks != nil {
			t.Fatalf("%s:\n got %+v\nwant %+v", label, st, want)
		}
	}

	n := int64(d.Size())
	st, predicted := evaluate("build", bins("age", 0, 10))
	check("build", st, BatchStats{Workloads: 1, ColumnPasses: 1, Rows: n, ScanBytes: d.ColumnScanBytes(agePos),
		Projections: map[string]int{dataset.ProjectionBuild: 1}})
	if predicted != st.ScanBytes {
		t.Fatalf("build: ScanPlan predicted %d B, the batch read %d", predicted, st.ScanBytes)
	}

	p, outcome := d.PlannedProjection([]int{agePos})
	if outcome != dataset.ProjectionHit {
		t.Fatalf("the build left no projection (%s)", outcome)
	}
	st, predicted = evaluate("hit", bins("age", 5, 12))
	check("hit", st, BatchStats{Workloads: 1, Rows: int64(p.Table().Size()), ScanBytes: p.Bytes(),
		Projections: map[string]int{dataset.ProjectionHit: 1}})
	if predicted != st.ScanBytes || st.ScanBytes >= d.ColumnScanBytes(agePos) {
		t.Fatalf("hit: ScanPlan predicted %d B, the batch read %d, the column is %d", predicted, st.ScanBytes, d.ColumnScanBytes(agePos))
	}

	// A set whose lanes could form more combinations than a row in eight:
	// before it is tried, ScanPlan predicts the build's traffic and says it
	// is not sure of it.
	untried := func(label string, pos int, preds []dataset.Predicate) BatchStats {
		t.Helper()
		tr, err := cache.Transform(s, Key(preds), preds)
		if err != nil {
			t.Fatal(err)
		}
		if _, bytes, exact := tr.ScanPlan(d); exact || bytes != d.ColumnScanBytes(pos) {
			t.Fatalf("%s: ScanPlan predicted %d B (exact %v), want the build's %d B, not exact", label, bytes, exact, d.ColumnScanBytes(pos))
		}
		st := cache.EvaluateBatch(d, []BatchItem{{Tr: tr, Histogram: true, Truth: true}})
		checkKernelAgainstRows(t, label, tr, d, rows)
		return st
	}
	// gain's lanes are 21 bits wide, but its rows hold 66 distinct values:
	// the set builds like a narrow one.
	check("wide", untried("wide", gainPos, bins("gain", 0, 1<<16)), BatchStats{Workloads: 1, ColumnPasses: 1, Rows: n,
		ScanBytes: d.ColumnScanBytes(gainPos), Projections: map[string]int{dataset.ProjectionBuild: 1}})

	// fare holds thousands of distinct cents, more than a row in eight. The
	// first workload's build aborts: an attempt pass, then the row pass. The
	// set is remembered: the next workload reads what a row pass reads, as
	// predicted.
	farePos, _ := s.Lookup("fare")
	check("abort", untried("abort", farePos, bins("fare", 0, 20)), BatchStats{Workloads: 1, ColumnPasses: 2, Rows: 2 * n, ScanBytes: 2 * d.ColumnScanBytes(farePos),
		Projections: map[string]int{dataset.ProjectionIneligible: 1}})
	st, predicted = evaluate("ineligible", bins("fare", 1, 19))
	check("ineligible", st, BatchStats{Workloads: 1, ColumnPasses: 1, Rows: n, ScanBytes: d.ColumnScanBytes(farePos),
		Projections: map[string]int{dataset.ProjectionIneligible: 1}})
	if predicted != st.ScanBytes {
		t.Fatalf("ineligible: ScanPlan predicted %d B, the batch read %d", predicted, st.ScanBytes)
	}

	// Two fresh workloads over one cold column set in one batch: the first
	// builds, the second is answered by what the first built.
	flagPos, _ := s.Lookup("flag")
	flagged := func(preds []dataset.Predicate) []dataset.Predicate {
		for i, p := range preds {
			preds[i] = dataset.And{p, dataset.StrEq{Attr: "flag", Val: "y"}}
		}
		return preds
	}
	st, _ = evaluate("build+hit", flagged(bins("age", 0, 10)), flagged(bins("age", 3, 9)))
	pf, _ := d.PlannedProjection([]int{agePos, flagPos})
	check("build+hit", st, BatchStats{Workloads: 2, ColumnPasses: 2, Rows: 2*n + 2*int64(pf.Table().Size()),
		ScanBytes:   d.ColumnScanBytes(agePos) + d.ColumnScanBytes(flagPos) + pf.Bytes(),
		Projections: map[string]int{dataset.ProjectionBuild: 1, dataset.ProjectionHit: 1}})
}
