package workload

import (
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
			trB, err := batched.Transform(s, preds)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			trP, err := plain.Transform(s, preds)
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
	tr, err := c.Transform(s, preds)
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
	trFunc, err := c.Transform(s, []dataset.Predicate{f})
	if err != nil {
		t.Fatal(err)
	}
	// A component grid above the (lowered) enumeration cap: implicit, no
	// components, one bitmap scan per predicate.
	bins, err := Histogram1D("gain", 0, 1000, 100)
	if err != nil {
		t.Fatal(err)
	}
	trImplicit, err := c.Transform(s, bins)
	if err != nil {
		t.Fatal(err)
	}
	if trImplicit.Materialized() || trImplicit.comps != nil {
		t.Fatal("expected an implicit transformation without components")
	}
	trKernel, err := c.Transform(s, []dataset.Predicate{dataset.Range{Attr: "age", Lo: 0, Hi: 50}})
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
	// 10 bitmap scans of gain plus the kernel's single pass over age.
	if st.ColumnPasses != len(bins)+1 || len(st.Columns) != 2 {
		t.Fatalf("passes = %d over columns %v, want %d over 2", st.ColumnPasses, st.Columns, len(bins)+1)
	}
	for _, tr := range []*Transformed{trFunc, trImplicit, trKernel} {
		if !tr.memo.ready(&tr.memo.truth, d) {
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
