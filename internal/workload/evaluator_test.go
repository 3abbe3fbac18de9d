package workload

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// The scan kernel is the only columnar evaluator: every predicate —
// alone, or as one of an implicit transformation's — and every SUM
// workload is answered by it. These tests hold it to the row-at-a-time
// references (Table.Count, rowSumsRef) on every storage form, with the
// inputs the per-predicate bitmap evaluator used to be checked with.

// evalSchema has a continuous attribute on either side of a categorical
// one, as random predicates and tables over it expect.
func evalSchema(tb testing.TB) *dataset.Schema {
	tb.Helper()
	s, err := dataset.NewSchema(
		dataset.Attribute{Name: "age", Kind: dataset.Continuous, Min: 0, Max: 100},
		dataset.Attribute{Name: "state", Kind: dataset.Categorical, Values: []string{"AL", "AK", "WY"}},
		dataset.Attribute{Name: "gain", Kind: dataset.Continuous, Min: 0, Max: 5000},
	)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// randMisfitTable builds a random table with NULLs, out-of-domain
// categorical strings and numbers, and (optionally) cells whose Value kind
// mismatches the attribute kind — everything the columnar store must
// represent exactly.
func randMisfitTable(rng *rand.Rand, s *dataset.Schema, n int, misfits bool) *dataset.Table {
	t := dataset.NewTable(s)
	row := make(dataset.Tuple, s.Arity())
	for i := 0; i < n; i++ {
		for pos := 0; pos < s.Arity(); pos++ {
			a := s.Attr(pos)
			switch r := rng.Float64(); {
			case r < 0.10:
				row[pos] = dataset.Null
			case misfits && r < 0.15:
				// Kind-mismatched cell: Num in a categorical column or
				// Str in a continuous one.
				if a.Kind == dataset.Categorical {
					row[pos] = dataset.Num(rng.Float64() * 10)
				} else {
					row[pos] = dataset.Str(fmt.Sprintf("junk%d", rng.Intn(3)))
				}
			case a.Kind == dataset.Categorical:
				if rng.Float64() < 0.2 {
					// Out-of-domain string (legal in CSV imports).
					row[pos] = dataset.Str(fmt.Sprintf("extra%d", rng.Intn(4)))
				} else {
					row[pos] = dataset.Str(a.Values[rng.Intn(len(a.Values))])
				}
			default:
				row[pos] = dataset.Num(a.Min + rng.Float64()*(a.Max-a.Min)*1.2 - (a.Max-a.Min)*0.1)
			}
		}
		t.MustAppend(row)
	}
	return t
}

// randPredicate grows a random predicate AST of bounded depth over the
// schema, including kind-mismatched atoms. (Transform rejects unknown
// attributes, so none are drawn.)
func randPredicate(rng *rand.Rand, s *dataset.Schema, depth int) dataset.Predicate {
	attr := func() string { return s.Attr(rng.Intn(s.Arity())).Name }
	if depth <= 0 || rng.Float64() < 0.45 {
		switch rng.Intn(5) {
		case 0:
			return dataset.NumCmp{Attr: attr(), Op: dataset.CmpOp(rng.Intn(6)), C: float64(rng.Intn(120) - 10)}
		case 1:
			lo := float64(rng.Intn(100))
			return dataset.Range{Attr: attr(), Lo: lo, Hi: lo + float64(rng.Intn(40))}
		case 2:
			vals := []string{"AL", "AK", "WY", "extra0", "extra2", "never-seen"}
			return dataset.StrEq{Attr: attr(), Val: vals[rng.Intn(len(vals))]}
		case 3:
			return dataset.IsNull{Attr: attr()}
		default:
			return dataset.True{}
		}
	}
	switch rng.Intn(3) {
	case 0:
		kids := make(dataset.And, rng.Intn(3)+1)
		for i := range kids {
			kids[i] = randPredicate(rng, s, depth-1)
		}
		return kids
	case 1:
		kids := make(dataset.Or, rng.Intn(3)+1)
		for i := range kids {
			kids[i] = randPredicate(rng, s, depth-1)
		}
		return kids
	default:
		return dataset.Not{P: randPredicate(rng, s, depth-1)}
	}
}

// rowSumsRef is the row-at-a-time reference of Transformed.Sums: each
// row's value clipped to the attribute's domain, NULL, non-numeric and NaN
// values skipped, added predicate by predicate in row order.
func rowSumsRef(d *dataset.Table, pos int, preds []dataset.Predicate) []float64 {
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

// continuousPositions lists the schema positions of the continuous
// attributes.
func continuousPositions(s *dataset.Schema) []int {
	var out []int
	for pos := 0; pos < s.Arity(); pos++ {
		if s.Attr(pos).Kind == dataset.Continuous {
			out = append(out, pos)
		}
	}
	return out
}

// checkSums requires Sums of every continuous attribute over d to equal
// the row-at-a-time sums over ref bit for bit.
func checkSums(tb testing.TB, label string, tr *Transformed, d, ref *dataset.Table) {
	tb.Helper()
	for _, pos := range continuousPositions(d.Schema()) {
		got, ok := tr.Sums(d, pos)
		if !ok {
			tb.Fatalf("%s: Sums(%d) declined a workload the scan kernel covers", label, pos)
		}
		want := rowSumsRef(ref, pos, tr.preds)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				tb.Fatalf("%s: Sums(%d)[%d] = %v, rows %v (predicate %v)", label, pos, j, got[j], want[j], tr.preds[j])
			}
		}
	}
}

// checkOnePredicate evaluates p as a workload of its own over every
// storage form of heap: its true answer against Table.Count, its sums
// against the row path.
func checkOnePredicate(tb testing.TB, label string, forms map[string]*dataset.Table, heap *dataset.Table, p dataset.Predicate) {
	tb.Helper()
	tr, err := Transform(heap.Schema(), []dataset.Predicate{p}, Options{})
	if err != nil {
		tb.Fatalf("%s: Transform(%v): %v", label, p, err)
	}
	want := float64(heap.Count(p))
	for name, d := range forms {
		if got := tr.TrueAnswers(d)[0]; got != want {
			tb.Fatalf("%s %s: TrueAnswers(%v) = %v, Count %v", label, name, p, got, want)
		}
		checkSums(tb, fmt.Sprintf("%s %s", label, name), tr, d, heap)
	}
}

// TestOnePredicateMatchesRowsRandomized: random tables (with NULLs,
// out-of-domain values and kind-mismatched cells) and random predicate
// ASTs, each predicate a workload of its own, in every storage form.
func TestOnePredicateMatchesRowsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := evalSchema(t)
	trials := 60
	if testing.Short() {
		trials = 12
	}
	for trial := 0; trial < trials; trial++ {
		heap := randMisfitTable(rng, s, 50+rng.Intn(150), trial%2 == 0)
		forms := storageForms(t, heap)
		for k := 0; k < 25; k++ {
			checkOnePredicate(t, fmt.Sprintf("trial %d", trial), forms, heap, randPredicate(rng, s, 3))
		}
	}
}

// TestOnePredicateMatchesRowsFromCSV covers the import path: values that
// arrive via CSV (including out-of-domain categorical strings) evaluate
// as the row path does after a round trip.
func TestOnePredicateMatchesRowsFromCSV(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := evalSchema(t)
	tab := randMisfitTable(rng, s, 200, false)
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, tab); err != nil {
		t.Fatal(err)
	}
	back, err := dataset.ReadCSV(&buf, s)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != tab.Size() {
		t.Fatalf("round trip lost rows: %d vs %d", back.Size(), tab.Size())
	}
	forms := storageForms(t, back)
	for k := 0; k < 100; k++ {
		checkOnePredicate(t, "csv", forms, back, randPredicate(rng, s, 3))
	}
}

// mixedTable appends rows with NULLs, out-of-domain strings and
// kind-mismatched misfit cells across dictionary sizes that straddle
// packed bit-width boundaries, and decimal columns that pack at
// exponents 1–3.
func mixedTable(tb testing.TB, n int, seed int64) *dataset.Table {
	tb.Helper()
	domain := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("v%d", i)
		}
		return out
	}
	schema, err := dataset.NewSchema(
		dataset.Attribute{Name: "flag", Kind: dataset.Categorical, Values: []string{"y"}},                           // width 2 after sentinels
		dataset.Attribute{Name: "grade", Kind: dataset.Categorical, Values: []string{"a", "b", "c", "d", "e", "f"}}, // width 3
		dataset.Attribute{Name: "code7", Kind: dataset.Categorical, Values: domain(7)},                              // width 4 boundary
		dataset.Attribute{Name: "code254", Kind: dataset.Categorical, Values: domain(254)},                          // width 8 boundary
		dataset.Attribute{Name: "age", Kind: dataset.Continuous, Min: 0, Max: 100},
		dataset.Attribute{Name: "gain", Kind: dataset.Continuous, Min: 0, Max: 100000},
		dataset.Attribute{Name: "frac", Kind: dataset.Continuous, Min: 0, Max: 100},      // 17 significant digits: stays unpacked
		dataset.Attribute{Name: "cents", Kind: dataset.Continuous, Min: 0, Max: 600},     // two decimals: exp 2
		dataset.Attribute{Name: "tenth", Kind: dataset.Continuous, Min: -200, Max: 200},  // one decimal, negative base: exp 1
		dataset.Attribute{Name: "mixed", Kind: dataset.Continuous, Min: 0, Max: 130.125}, // integers, halves, eighths, mills: exp 3
	)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	tab := dataset.NewTable(schema)
	g254 := domain(254)
	for i := 0; i < n; i++ {
		row := dataset.Tuple{
			dataset.Str([]string{"y", "n?", "y", "y"}[rng.Intn(4)]), // n? is out of domain
			dataset.Str(string(rune('a' + rng.Intn(8)))),            // g,h out of domain
			dataset.Str(fmt.Sprintf("v%d", rng.Intn(9))),
			dataset.Str(g254[rng.Intn(254)]),
			dataset.Num(float64(17 + rng.Intn(74))),
			dataset.Num(float64(rng.Intn(100000))),
			dataset.Num(rng.Float64() * 100),
			dataset.Num(float64(rng.Intn(60000)) / 100),
			dataset.Num(float64(rng.Intn(4000)-2000) / 10),
			dataset.Num([]float64{3, 2.5, 0.125, 17.003, 40}[rng.Intn(5)] + float64(rng.Intn(90))),
		}
		for pos := range row {
			if rng.Intn(23) == 0 {
				row[pos] = dataset.Null
			}
		}
		if rng.Intn(41) == 0 { // kind-mismatched cells exercise the misfit path
			row[rng.Intn(4)] = dataset.Num(float64(rng.Intn(5)))
		}
		if rng.Intn(41) == 0 {
			row[4+rng.Intn(6)] = dataset.Str("oops")
		}
		tab.MustAppend(row)
	}
	return tab
}

// TestOnePredicateMatchesRowsPackedBattery: a predicate battery over
// bit-packed codes at width boundaries and the decimal edge constants of
// the fixed-point columns — 7/100 is not 0.07·100, 0.29 and 0.57 are
// cents whose ×100 is inexact — in every storage form.
func TestOnePredicateMatchesRowsPackedBattery(t *testing.T) {
	heap := mixedTable(t, 4097, 7)
	forms := storageForms(t, heap)
	preds := []dataset.Predicate{
		dataset.StrEq{Attr: "flag", Val: "y"},
		dataset.StrEq{Attr: "flag", Val: "n?"},   // out-of-domain value, interned at append time
		dataset.StrEq{Attr: "grade", Val: "h"},   // out-of-domain
		dataset.StrEq{Attr: "grade", Val: "zzz"}, // never interned
		dataset.StrEq{Attr: "code254", Val: "v253"},
		dataset.IsNull{Attr: "grade"},
		dataset.IsNull{Attr: "age"},
		dataset.NumCmp{Attr: "age", Op: dataset.Lt, C: 40},
		dataset.NumCmp{Attr: "age", Op: dataset.Ge, C: 40.5},
		dataset.NumCmp{Attr: "gain", Op: dataset.Eq, C: 0},
		dataset.NumCmp{Attr: "gain", Op: dataset.Ne, C: math.NaN()},
		dataset.NumCmp{Attr: "frac", Op: dataset.Le, C: 50},
		dataset.NumCmp{Attr: "cents", Op: dataset.Eq, C: 0.07},
		dataset.NumCmp{Attr: "cents", Op: dataset.Gt, C: 299.995},
		dataset.Range{Attr: "cents", Lo: 0.29, Hi: 0.57},
		dataset.Range{Attr: "tenth", Lo: -0.3, Hi: 0.3},
		dataset.NumCmp{Attr: "tenth", Op: dataset.Le, C: -199.95},
		dataset.NumCmp{Attr: "mixed", Op: dataset.Ge, C: 17.003},
		dataset.NumCmp{Attr: "mixed", Op: dataset.Ne, C: 2.5},
		dataset.Range{Attr: "mixed", Lo: math.Inf(-1), Hi: 40.125},
		dataset.Range{Attr: "age", Lo: 20, Hi: 65},
		dataset.Range{Attr: "gain", Lo: 100, Hi: 10000},
		dataset.And{dataset.StrEq{Attr: "flag", Val: "y"}, dataset.Range{Attr: "age", Lo: 30, Hi: 50}},
		dataset.Or{dataset.IsNull{Attr: "gain"}, dataset.NumCmp{Attr: "gain", Op: dataset.Gt, C: 90000}},
		dataset.Not{P: dataset.StrEq{Attr: "grade", Val: "a"}},
	}
	for _, p := range preds {
		checkOnePredicate(t, "battery", forms, heap, p)
	}
}

// TestSumsMatchRowsAcrossStorage: multi-predicate SUM workloads — one
// component or several, in-domain or not, with misfit rows — sum bit for
// bit as the row path does, in every storage form.
func TestSumsMatchRowsAcrossStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	s := kernelSchema(t)
	for trial := 0; trial < 8; trial++ {
		heap := kernelTable(rng, s, 1+rng.Intn(3*morselRows), trial%2 == 1)
		forms := storageForms(t, heap)
		nums := []string{kernelNums[rng.Intn(3)], kernelNums[3+rng.Intn(3)]}
		var preds []dataset.Predicate
		for j := 0; j < 2+rng.Intn(10); j++ {
			preds = append(preds, kernelPredicate(rng, nums, 2))
		}
		tr, err := Transform(s, preds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for name, d := range forms {
			checkSums(t, fmt.Sprintf("trial %d %s", trial, name), tr, d, heap)
		}
	}
}

// boxWorkload draws n 3-D boxes over age, fare and tenth: with some fifty
// distinct cuts per attribute the one component's grid is far above
// DefaultMaxCells, so the transformation stays implicit.
func boxWorkload(rng *rand.Rand, n int) []dataset.Predicate {
	preds := make([]dataset.Predicate, n)
	for i := range preds {
		box := make(dataset.And, 0, 3)
		for _, attr := range []string{"age", "fare", "tenth"} {
			a, b := kernelCut(rng, attr), kernelCut(rng, attr)
			box = append(box, dataset.Range{Attr: attr, Lo: min(a, b), Hi: max(a, b)})
		}
		preds[i] = box
	}
	return preds
}

// TestImplicitWorkloadMatchesRows: an implicit transformation evaluates
// each predicate as a workload of its own, in every storage form — counted
// once as implicit, its scan bytes as planned. A member whose own grid is
// too large takes the row path, and the plan then says it is not exact; a
// workload of that member alone is a grid fallback, not an implicit one
// (which would evaluate it as itself again).
func TestImplicitWorkloadMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	s := kernelSchema(t)
	heap := kernelTable(rng, s, 3*morselRows/2, true)
	forms := storageForms(t, heap)
	boxes := boxWorkload(rng, 60)
	big := make(dataset.Or, 0, 40)
	for _, p := range boxWorkload(rng, 40) {
		big = append(big, p)
	}
	if _, ok := soloColumns(s, big); ok {
		t.Fatal("the oversized member fits a grid; the test needs a larger one")
	}
	cases := []struct {
		name     string
		preds    []dataset.Predicate
		fallback string
		exact    bool
	}{
		{"boxes", boxes, FallbackImplicit, true},
		{"boxes+oversized", append(append([]dataset.Predicate(nil), boxes...), big), FallbackImplicit, false},
		{"oversized alone", []dataset.Predicate{big}, FallbackGrid, false},
	}
	for _, c := range cases {
		for name, d := range forms {
			label := c.name + " " + name
			cache := NewTransformCache(Options{})
			tr, err := cache.Transform(s, Key(c.preds), c.preds)
			if err != nil {
				t.Fatal(err)
			}
			if tr.comps != nil || tr.Materialized() {
				t.Fatalf("%s: want an implicit transformation without components", label)
			}
			_, planBytes, exact := tr.ScanPlan(d)
			if exact != c.exact {
				t.Fatalf("%s: ScanPlan exact = %v, want %v", label, exact, c.exact)
			}
			st := cache.EvaluateBatch(d, []BatchItem{{Tr: tr, Histogram: true, Truth: true}})
			if st.Fallbacks[c.fallback] != 1 || len(st.Fallbacks) != 1 {
				t.Fatalf("%s: fallbacks %v, want one %s", label, st.Fallbacks, c.fallback)
			}
			if exact && st.ScanBytes != planBytes {
				t.Fatalf("%s: read %d bytes, planned %d", label, st.ScanBytes, planBytes)
			}
			checkKernelAgainstRows(t, label, tr, d)
			if _, ok := tr.Sums(d, 0); ok != c.exact {
				t.Fatalf("%s: Sums ok = %v", label, ok)
			}
			if c.exact {
				checkSums(t, label, tr, d, heap)
			}
		}
	}
}
