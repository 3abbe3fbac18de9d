package workload

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
)

func columnarSchema(t *testing.T) *dataset.Schema {
	t.Helper()
	s, err := dataset.NewSchema(
		dataset.Attribute{Name: "age", Kind: dataset.Continuous, Min: 0, Max: 100},
		dataset.Attribute{Name: "state", Kind: dataset.Categorical, Values: []string{"CA", "NY", "TX"}},
		dataset.Attribute{Name: "gain", Kind: dataset.Continuous, Min: 0, Max: 1000},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randDomainTable fills a table with in-domain values plus NULLs — the
// rows Histogram must partition without error.
func randDomainTable(rng *rand.Rand, s *dataset.Schema, n int) *dataset.Table {
	t := dataset.NewTable(s)
	row := make(dataset.Tuple, s.Arity())
	for i := 0; i < n; i++ {
		for pos := 0; pos < s.Arity(); pos++ {
			a := s.Attr(pos)
			switch {
			case rng.Float64() < 0.08:
				row[pos] = dataset.Null
			case a.Kind == dataset.Categorical:
				row[pos] = dataset.Str(a.Values[rng.Intn(len(a.Values))])
			default:
				row[pos] = dataset.Num(a.Min + rng.Float64()*(a.Max-a.Min))
			}
		}
		t.MustAppend(row)
	}
	return t
}

// randWorkload builds a random transformable workload mixing range,
// comparison, equality, null and boolean-combination predicates.
func randWorkload(rng *rand.Rand, s *dataset.Schema, l int) []dataset.Predicate {
	contAttrs := []string{"age", "gain"}
	maxOf := map[string]float64{"age": 100, "gain": 1000}
	atom := func() dataset.Predicate {
		switch rng.Intn(4) {
		case 0:
			a := contAttrs[rng.Intn(2)]
			lo := rng.Float64() * maxOf[a]
			return dataset.Range{Attr: a, Lo: lo, Hi: lo + rng.Float64()*maxOf[a]/2}
		case 1:
			a := contAttrs[rng.Intn(2)]
			return dataset.NumCmp{Attr: a, Op: dataset.CmpOp(rng.Intn(6)), C: rng.Float64() * maxOf[a]}
		case 2:
			vals := []string{"CA", "NY", "TX"}
			return dataset.StrEq{Attr: "state", Val: vals[rng.Intn(3)]}
		default:
			attrs := []string{"age", "state", "gain"}
			return dataset.IsNull{Attr: attrs[rng.Intn(3)]}
		}
	}
	out := make([]dataset.Predicate, l)
	for i := range out {
		switch rng.Intn(4) {
		case 0:
			out[i] = dataset.And{atom(), atom()}
		case 1:
			out[i] = dataset.Or{atom(), atom()}
		case 2:
			out[i] = dataset.Not{P: atom()}
		default:
			out[i] = atom()
		}
	}
	return out
}

// TestColumnarKernelsMatchRowPathRandomized is the workload-level
// differential test: for random workloads over random tables, the
// columnar Histogram and TrueAnswers must match the row-at-a-time
// reference exactly (counts are integers, so equality is exact).
func TestColumnarKernelsMatchRowPathRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	s := columnarSchema(t)
	for trial := 0; trial < 40; trial++ {
		d := randDomainTable(rng, s, 100+rng.Intn(300))
		preds := randWorkload(rng, s, 1+rng.Intn(8))
		tr, err := Transform(s, preds, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		truth := tr.TrueAnswers(d)
		rows := tr.TrueAnswersRows(d)
		for j := range truth {
			if truth[j] != rows[j] {
				t.Fatalf("trial %d: TrueAnswers[%d] columnar %v vs rows %v (workload %v)",
					trial, j, truth[j], rows[j], preds)
			}
		}
		if !tr.Materialized() {
			continue
		}
		x, err := tr.Histogram(d)
		if err != nil {
			t.Fatalf("trial %d: columnar histogram: %v", trial, err)
		}
		xr, err := tr.HistogramRows(d)
		if err != nil {
			t.Fatalf("trial %d: row histogram: %v", trial, err)
		}
		var mass float64
		for p := range x {
			if x[p] != xr[p] {
				t.Fatalf("trial %d: Histogram[%d] columnar %v vs rows %v", trial, p, x[p], xr[p])
			}
			mass += x[p]
		}
		if mass != float64(d.Size()) {
			t.Fatalf("trial %d: histogram mass %v != |D| %d", trial, mass, d.Size())
		}
		// Wx must equal the true answers (the defining identity of T_W).
		for j := range preds {
			var dot float64
			for p := 0; p < tr.NumPartitions(); p++ {
				dot += tr.Matrix().At(j, p) * x[p]
			}
			if math.Abs(dot-truth[j]) > 1e-9 {
				t.Fatalf("trial %d: W·x = %v but true answer %v for predicate %d", trial, dot, truth[j], j)
			}
		}
	}
}

// TestHistogramOutOfDomainErrorParity: a tuple outside the public domain
// must fail identically on both paths.
func TestHistogramOutOfDomainErrorParity(t *testing.T) {
	s := columnarSchema(t)
	d := dataset.NewTable(s)
	d.MustAppend(dataset.Tuple{dataset.Num(30), dataset.Str("CA"), dataset.Num(10)})
	// age 200 breaks the public domain [0,100]: the predicate below is
	// satisfiable only beyond it, a signature no representative cell has.
	d.MustAppend(dataset.Tuple{dataset.Num(200), dataset.Str("CA"), dataset.Num(10)})
	preds := []dataset.Predicate{dataset.NumCmp{Attr: "age", Op: dataset.Ge, C: 150}}
	tr, err := Transform(s, preds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, errCol := tr.Histogram(d)
	_, errRow := tr.HistogramRows(d)
	if errCol == nil || errRow == nil {
		t.Fatalf("expected out-of-domain error on both paths, got columnar %v, rows %v", errCol, errRow)
	}
	if errCol.Error() != errRow.Error() {
		t.Fatalf("error text differs:\ncolumnar: %v\nrows:     %v", errCol, errRow)
	}
}

// TestFuncPredicateFallsBackToRows: an opaque predicate with declared
// breakpoints transforms fine, but the scan kernel cannot evaluate it; it must fall
// back to the row path and still be exact.
func TestFuncPredicateFallsBackToRows(t *testing.T) {
	s := columnarSchema(t)
	f := breakpointFunc{
		Func: dataset.Func{
			Name:      "age-even-decade",
			ReadAttrs: []string{"age"},
			Fn: func(sc *dataset.Schema, tu dataset.Tuple) bool {
				i, _ := sc.Lookup("age")
				v, ok := tu[i].AsNum()
				return ok && int(v/10)%2 == 0
			},
		},
		bps: map[string][]float64{"age": {0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}},
	}
	preds := []dataset.Predicate{f}
	tr, err := Transform(s, preds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	d := randDomainTable(rng, s, 400)
	truth := tr.TrueAnswers(d)
	rows := tr.TrueAnswersRows(d)
	if truth[0] != rows[0] {
		t.Fatalf("fallback mismatch: %v vs %v", truth[0], rows[0])
	}
	x, err := tr.Histogram(d)
	if err != nil {
		t.Fatal(err)
	}
	xr, err := tr.HistogramRows(d)
	if err != nil {
		t.Fatal(err)
	}
	for p := range x {
		if x[p] != xr[p] {
			t.Fatalf("histogram fallback mismatch at %d", p)
		}
	}
}

type breakpointFunc struct {
	dataset.Func
	bps map[string][]float64
}

func (b breakpointFunc) Breakpoints() map[string][]float64 { return b.bps }

// TestTransformCacheSharesOneEvaluation: concurrent Transform calls for
// the same workload return one Transformed, and its memoized evaluations
// are computed once per table yet handed out as independent copies.
func TestTransformCacheSharesOneEvaluation(t *testing.T) {
	s := columnarSchema(t)
	rng := rand.New(rand.NewSource(9))
	d := randDomainTable(rng, s, 300)
	preds, err := Histogram1D("age", 0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	c := NewTransformCache(Options{})

	const callers = 8
	trs := make([]*Transformed, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := c.Transform(s, Key(preds), preds)
			if err != nil {
				t.Error(err)
				return
			}
			trs[i] = tr
			if _, err := tr.Histogram(d); err != nil {
				t.Error(err)
			}
			tr.TrueAnswers(d)
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if trs[i] != trs[0] {
			t.Fatal("cache returned distinct Transformed values for one workload")
		}
	}
	if c.Len() != 1 {
		t.Fatalf("cache has %d entries", c.Len())
	}

	// Handed-out slices are copies: a caller scribbling on its answer
	// must not poison the cache.
	a := trs[0].TrueAnswers(d)
	a[0] = -12345
	b := trs[0].TrueAnswers(d)
	if b[0] == -12345 {
		t.Fatal("memoized TrueAnswers leaked shared backing storage")
	}
	h1, err := trs[0].Histogram(d)
	if err != nil {
		t.Fatal(err)
	}
	h1[0] = -1
	h2, err := trs[0].Histogram(d)
	if err != nil {
		t.Fatal(err)
	}
	if h2[0] == -1 {
		t.Fatal("memoized Histogram leaked shared backing storage")
	}

	// The evaluation sealed the table: an append is refused, so the memo
	// can never serve answers for rows the table no longer holds.
	if err := d.Append(dataset.Tuple{dataset.Num(5), dataset.Str("CA"), dataset.Num(1)}); err == nil {
		t.Fatal("Append to an evaluated table was accepted")
	}
}

// TestTransformCacheRejectsForeignSchema: scan kernels bake in
// attribute positions, so one cache must refuse a second schema instead
// of serving kernels for the wrong table layout.
func TestTransformCacheRejectsForeignSchema(t *testing.T) {
	s1 := columnarSchema(t)
	s2, err := dataset.NewSchema(
		dataset.Attribute{Name: "state", Kind: dataset.Categorical, Values: []string{"CA"}},
		dataset.Attribute{Name: "age", Kind: dataset.Continuous, Min: 0, Max: 100},
	)
	if err != nil {
		t.Fatal(err)
	}
	c := NewTransformCache(Options{})
	preds := []dataset.Predicate{dataset.Range{Attr: "age", Lo: 0, Hi: 50}}
	if _, err := c.Transform(s1, Key(preds), preds); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Transform(s2, Key(preds), preds); err == nil {
		t.Fatal("same cache across two schemas must error")
	}
	// The bound schema keeps working.
	if _, err := c.Transform(s1, Key(preds), preds); err != nil {
		t.Fatal(err)
	}
}

// TestTransformCacheBoundsEntries: a long-lived server cache must not
// grow without bound as analysts mint distinct workload keys.
func TestTransformCacheBoundsEntries(t *testing.T) {
	s := columnarSchema(t)
	c := NewTransformCache(Options{})
	for i := 0; i < 600; i++ {
		preds := []dataset.Predicate{dataset.Range{Attr: "age", Lo: float64(i % 100), Hi: float64(i%100) + 0.5}}
		if i%7 == 0 {
			preds[0] = dataset.NumCmp{Attr: "gain", Op: dataset.Lt, C: float64(i)}
		}
		if _, err := c.Transform(s, Key(preds), preds); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Len(); got > 256 {
		t.Fatalf("cache grew to %d entries, bound is 256", got)
	}
}

// TestTransformCacheKeepsTheHotSet: 48 hot workloads asked between 2,000
// fresh ones — one fresh key in five requests, as in the benchmark's mixed
// traffic — stay cached across all of it. Every hot re-ask returns the
// same Transformed with its evaluations still memoized, so it scans
// nothing; a wholesale drop of the full cache would fail both.
func TestTransformCacheKeepsTheHotSet(t *testing.T) {
	s := columnarSchema(t)
	d := randDomainTable(rand.New(rand.NewSource(4)), s, 200)
	c := NewTransformCache(Options{})
	ask := func(preds []dataset.Predicate) (*Transformed, BatchStats) {
		t.Helper()
		tr, err := c.Transform(s, Key(preds), preds)
		if err != nil {
			t.Fatal(err)
		}
		return tr, c.EvaluateBatch(d, []BatchItem{{Tr: tr, Histogram: true, Truth: true}})
	}
	const hotN, fresh = 48, 2000
	hot := make([]*Transformed, hotN)
	for h := range hot {
		hot[h], _ = ask([]dataset.Predicate{dataset.Range{Attr: "age", Lo: float64(h), Hi: float64(h) + 50}})
	}
	for i, f := 0, 0; f < fresh; i++ {
		if i%5 == 4 {
			ask([]dataset.Predicate{dataset.Range{Attr: "gain", Lo: float64(f) / 4, Hi: 1000}})
			f++
			continue
		}
		h := i % hotN
		tr, st := ask([]dataset.Predicate{dataset.Range{Attr: "age", Lo: float64(h), Hi: float64(h) + 50}})
		if tr != hot[h] {
			t.Fatalf("request %d: hot workload %d was transformed again", i, h)
		}
		if st.Workloads != 0 {
			t.Fatalf("request %d: hot workload %d was rescanned (%+v)", i, h, st)
		}
	}
}

// TestHistogramErrorParityAcrossComponents: when different rows are
// out-of-domain in different components, both paths must still report
// the same (first) failing row — the row path scans rows outermost, so
// the columnar kernel has to take the minimum across components.
func TestHistogramErrorParityAcrossComponents(t *testing.T) {
	s := columnarSchema(t)
	// Two components: one over age, one over gain; each predicate is
	// satisfiable only beyond its public domain.
	preds := []dataset.Predicate{
		dataset.NumCmp{Attr: "age", Op: dataset.Ge, C: 150},
		dataset.NumCmp{Attr: "gain", Op: dataset.Ge, C: 5000},
	}
	tr, err := Transform(s, preds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := dataset.NewTable(s)
	// Row 0 breaks only the gain component (second in component order);
	// row 1 breaks only the age component (first in component order).
	d.MustAppend(dataset.Tuple{dataset.Num(10), dataset.Str("CA"), dataset.Num(9000)})
	d.MustAppend(dataset.Tuple{dataset.Num(200), dataset.Str("CA"), dataset.Num(10)})
	_, errCol := tr.Histogram(d)
	_, errRow := tr.HistogramRows(d)
	if errCol == nil || errRow == nil {
		t.Fatalf("expected errors, got columnar %v, rows %v", errCol, errRow)
	}
	if errCol.Error() != errRow.Error() {
		t.Fatalf("error text differs:\ncolumnar: %v\nrows:     %v", errCol, errRow)
	}
	if !strings.Contains(errRow.Error(), "row 0") {
		t.Fatalf("row path should fail at row 0, got %v", errRow)
	}
}
