package workload

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/colstore"
	"repro/internal/dataset"
)

// kernelSchema covers every storage arm of the scan kernel once packed:
// age frame-of-reference packs to 8-bit lanes (lookup table), gain to
// 21-bit lanes (integer thresholds), frac holds fractions and non-finite
// values and stays float64, state and flag bit-pack their codes. fare
// (cents, 14-bit lanes: lookup table), tenth (one decimal, negative base)
// and mixed (integers, halves and eighths in one column: exponent 3,
// 17-bit lanes, integer thresholds) pack as fixed-point decimals.
func kernelSchema(tb testing.TB) *dataset.Schema {
	tb.Helper()
	s, err := dataset.NewSchema(
		dataset.Attribute{Name: "age", Kind: dataset.Continuous, Min: 0, Max: 100},
		dataset.Attribute{Name: "gain", Kind: dataset.Continuous, Min: 0, Max: 1 << 20},
		dataset.Attribute{Name: "frac", Kind: dataset.Continuous, Min: -1, Max: 1},
		dataset.Attribute{Name: "state", Kind: dataset.Categorical, Values: []string{"CA", "NY", "TX"}},
		dataset.Attribute{Name: "flag", Kind: dataset.Categorical, Values: []string{"y", "n"}},
		dataset.Attribute{Name: "fare", Kind: dataset.Continuous, Min: 0, Max: 120},
		dataset.Attribute{Name: "tenth", Kind: dataset.Continuous, Min: -100, Max: 100},
		dataset.Attribute{Name: "mixed", Kind: dataset.Continuous, Min: 0, Max: 100},
	)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// kernelDecimal draws a value of one of the fixed-point columns.
func kernelDecimal(rng *rand.Rand, attr string) float64 {
	switch attr {
	case "fare":
		return float64(rng.Intn(12001)) / 100
	case "tenth":
		return float64(rng.Intn(2001)-1000) / 10
	}
	return float64(rng.Intn(801)) / 8 // mixed
}

// kernelTable fills a heap table with in-domain rows and NULLs; wild
// adds rows outside the public domain (out-of-range numbers, NaN, ±Inf,
// strings the schema does not list) and kind-mismatched misfit cells. It
// returns the table with the tuples appended to it, the oracle's input.
func kernelTable(rng *rand.Rand, s *dataset.Schema, n int, wild bool) (*dataset.Table, []dataset.Tuple) {
	fracs := []float64{0, math.Copysign(0, -1), 0.5, -0.5, 1, -1, 0.25}
	rows := make([]dataset.Tuple, 0, n)
	for i := 0; i < n; i++ {
		row := dataset.Tuple{
			dataset.Num(float64(rng.Intn(101))),
			dataset.Num(float64(rng.Intn(65) << 14)), // few distinct values, so cuts land on them
			dataset.Num(fracs[rng.Intn(len(fracs))]),
			dataset.Str([]string{"CA", "NY", "TX"}[rng.Intn(3)]),
			dataset.Str([]string{"y", "n"}[rng.Intn(2)]),
			dataset.Num(kernelDecimal(rng, "fare")),
			dataset.Num(kernelDecimal(rng, "tenth")),
			dataset.Num(kernelDecimal(rng, "mixed")),
		}
		if rng.Intn(3) == 0 {
			row[2] = dataset.Num(rng.Float64()*2 - 1)
		}
		if wild && rng.Intn(12) == 0 {
			switch rng.Intn(6) {
			case 0:
				row[0] = dataset.Num(float64(101 + rng.Intn(60)))
			case 5:
				row[5+rng.Intn(3)] = dataset.Num(float64(12001+rng.Intn(900)) / 100)
			case 1:
				row[1] = dataset.Num(float64(1<<20 + 1 + rng.Intn(1000)))
			case 2:
				row[2] = dataset.Num([]float64{math.NaN(), math.Inf(1), math.Inf(-1), 7.5, -3}[rng.Intn(5)])
			case 3:
				row[3] = dataset.Str("ZZ")
			default: // misfit: a number in a categorical cell, a string in a continuous one
				row[3+rng.Intn(2)] = dataset.Num(float64(rng.Intn(3)))
				row[[]int{0, 1, 2, 5, 6, 7}[rng.Intn(6)]] = dataset.Str("oops")
			}
		}
		for pos := range row {
			if rng.Intn(14) == 0 {
				row[pos] = dataset.Null
			}
		}
		rows = append(rows, row)
	}
	return repeatedTable(s, rows, 1), rows
}

// repeatedTable appends the rows repeat times over, copy after copy, to a
// new table; its first read seals it.
func repeatedTable(s *dataset.Schema, rows []dataset.Tuple, repeat int) *dataset.Table {
	t := dataset.NewTable(s)
	for k := 0; k < repeat; k++ {
		for _, row := range rows {
			t.MustAppend(row)
		}
	}
	return t
}

// rawForm is the sealed table with every continuous column widened to
// float64s — the raw reader, which a v1 segment's values and every column
// without a frame go through.
func rawForm(tb testing.TB, d *dataset.Table) *dataset.Table {
	tb.Helper()
	s := d.Schema()
	cols := make([]dataset.ColumnData, s.Arity())
	for pos := range cols {
		cols[pos] = d.ColumnData(pos)
		if vals, _, ok := d.Floats(pos); ok {
			cols[pos] = dataset.ColumnData{Kind: dataset.Continuous, Vals: vals, MissingWords: cols[pos].MissingWords}
		}
	}
	raw, err := dataset.TableFromColumns(s, d.Size(), cols, d.MisfitCells())
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// misfitTuple reports whether a tuple holds a kind-mismatched cell.
func misfitTuple(s *dataset.Schema, row dataset.Tuple) bool {
	for pos, v := range row {
		_, isStr := v.AsStr()
		_, isNum := v.AsNum()
		if cat := s.Attr(pos).Kind == dataset.Categorical; !v.IsNull() && (cat && !isStr || !cat && !isNum) {
			return true
		}
	}
	return false
}

// projectedForm returns the rows repeated as often as it takes for the
// workload's column set to have a projection (at most a distinct tuple
// per eight rows, misfit rows not counted), and how often that is; nil
// when the workload takes no kernel or the set's rows hold more than
// maxTuples distinct tuples.
func projectedForm(tb testing.TB, tr *Transformed, rows []dataset.Tuple, maxTuples int) (*dataset.Table, int) {
	tb.Helper()
	cols := tr.kernels().cols
	if tr.kernels().fallback != "" || len(rows) == 0 {
		return nil, 0
	}
	tuples := make(map[string]bool)
	for _, row := range rows {
		if misfitTuple(tr.schema, row) {
			continue
		}
		var key []byte
		for _, pos := range cols {
			v := row[pos]
			switch f, isNum := v.AsNum(); {
			case isNum:
				key = fmt.Appendf(key, "n%x|", math.Float64bits(f)) // −0 and +0 are two tuples
			case v.IsNull():
				key = append(key, "-|"...)
			default:
				key = fmt.Appendf(key, "s%q|", v.String())
			}
		}
		tuples[string(key)] = true
	}
	if len(tuples) > maxTuples {
		return nil, 0
	}
	repeat := max(1, (8*len(tuples)+len(rows)-1)/len(rows))
	d := repeatedTable(tr.schema, rows, repeat)
	if _, outcome := d.PlannedProjection(cols); outcome != dataset.ProjectionBuild {
		tb.Fatalf("%d tuples over columns %v of %d rows: projection planned %q, want a build", len(tuples), cols, d.Size(), outcome)
	}
	return d, repeat
}

// storageForms returns the sealed heap table and its other homes: its
// values widened to float64s, the v2 segment its rows stream into,
// mapped, and that segment's columns copied back onto the heap.
func storageForms(tb testing.TB, heap *dataset.Table) map[string]*dataset.Table {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "table.seg")
	b, err := colstore.NewBuilder(path, heap.Schema())
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < heap.Size(); i++ {
		if err := b.Append(heap.Row(i)); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := b.Finish(); err != nil {
		tb.Fatal(err)
	}
	seg, err := colstore.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { seg.Close() })
	copied, err := colstore.HeapCopy(seg.Table())
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]*dataset.Table{"heap": heap, "heap-raw": rawForm(tb, heap), "heap-copy": copied, "v2": seg.Table()}
}

// kernelCut draws a cut constant for the attribute: mostly values the
// data holds exactly (so point atoms are hit), plus fractions, constants
// outside [Min, Max], non-finite ones and −0.
func kernelCut(rng *rand.Rand, attr string) float64 {
	hi := map[string]float64{"age": 100, "gain": 1 << 20, "frac": 1, "fare": 120, "tenth": 100, "mixed": 100}[attr]
	switch rng.Intn(10) {
	case 0:
		return []float64{-7, hi + 30, 1e12, -1e12}[rng.Intn(4)]
	case 1:
		return []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}[rng.Intn(4)]
	case 2:
		return rng.Float64() * hi
	}
	switch attr {
	case "frac":
		return []float64{-1, -0.5, 0, 0.25, 0.5, 1}[rng.Intn(6)]
	case "gain":
		return float64(rng.Intn(65) << 14)
	case "fare", "tenth", "mixed":
		return kernelDecimal(rng, attr)
	}
	return float64(rng.Intn(101))
}

// kernelNums are the continuous attributes of kernelSchema. A workload
// draws its predicates over three of them: the component grid of all six
// at once outgrows what Transform materializes.
var kernelNums = []string{"age", "gain", "frac", "fare", "tenth", "mixed"}

// kernelAtom draws an atomic predicate over the given continuous
// attributes (and the categorical ones), including NumCmp Eq/Ne, ranges
// whose bounds are adjacent floats (an empty open interval between two
// cuts) and comparisons against the wrong attribute kind.
func kernelAtom(rng *rand.Rand, nums []string) dataset.Predicate {
	num := nums[rng.Intn(len(nums))]
	switch rng.Intn(8) {
	case 0, 1:
		lo := kernelCut(rng, num)
		return dataset.Range{Attr: num, Lo: lo, Hi: lo + math.Abs(kernelCut(rng, num))}
	case 2, 3:
		return dataset.NumCmp{Attr: num, Op: dataset.CmpOp(rng.Intn(6)), C: kernelCut(rng, num)}
	case 4:
		c := kernelCut(rng, num)
		return dataset.Range{Attr: num, Lo: c, Hi: math.Nextafter(c, math.Inf(1))}
	case 5:
		return dataset.StrEq{Attr: "state", Val: []string{"CA", "NY", "TX", "ZZ", "never"}[rng.Intn(5)]}
	case 6:
		return dataset.StrEq{Attr: []string{"flag", "age"}[rng.Intn(2)], Val: "y"}
	}
	return dataset.IsNull{Attr: append([]string{"state", "flag"}, nums...)[rng.Intn(2+len(nums))]}
}

func kernelPredicate(rng *rand.Rand, nums []string, depth int) dataset.Predicate {
	if depth == 0 || rng.Intn(3) == 0 {
		return kernelAtom(rng, nums)
	}
	switch rng.Intn(3) {
	case 0:
		return dataset.And{kernelPredicate(rng, nums, depth-1), kernelPredicate(rng, nums, depth-1)}
	case 1:
		return dataset.Or{kernelPredicate(rng, nums, depth-1), kernelPredicate(rng, nums, depth-1)}
	}
	return dataset.Not{P: kernelPredicate(rng, nums, depth-1)}
}

// checkKernelAgainstRows is the differential oracle: the scan kernel's
// histogram (or its error, to the character) and true answers over d must
// equal predicate-by-predicate Eval over rows, the tuples appended to it —
// never read back from a sealed table.
func checkKernelAgainstRows(tb testing.TB, label string, tr *Transformed, d *dataset.Table, rows []dataset.Tuple) {
	tb.Helper()
	checkKernelAgainstRepeatedRows(tb, label, tr, d, rows, 1)
}

// checkProjectedAgainstRows is the oracle's third form, next to the
// packed and the raw table: the rows repeated until the workload's column
// set has a projection, evaluated through it — first building it
// (truth-only), then answered by the held one (hist-only) — against Eval
// over the rows. It reports false when the column set cannot have a
// projection of at most maxTuples rows.
func checkProjectedAgainstRows(tb testing.TB, label string, tr *Transformed, rows []dataset.Tuple, maxTuples int) bool {
	tb.Helper()
	d, repeat := projectedForm(tb, tr, rows, maxTuples)
	if d == nil {
		return false
	}
	checkKernelAgainstRepeatedRows(tb, label, tr, d, rows, repeat)
	if _, outcome := d.PlannedProjection(tr.kernels().cols); outcome != dataset.ProjectionHit {
		tb.Fatalf("%s: the evaluation left no projection behind (%s)", label, outcome)
	}
	x, truths, err := tr.EvaluateUnprojected(d)
	checkResults(tb, label+" (row kernel)", tr, x, truths, err, rows, repeat)
	return true
}

// checkKernelAgainstRepeatedRows evaluates over d, which holds rows repeat
// times over. Every count is then repeat times the rows', and the first
// row outside the public domain the same row.
func checkKernelAgainstRepeatedRows(tb testing.TB, label string, tr *Transformed, d *dataset.Table, rows []dataset.Tuple, repeat int) {
	tb.Helper()
	truths := tr.TrueAnswers(d)
	var x []float64
	var err error
	if tr.Materialized() {
		x, err = tr.Histogram(d)
	}
	checkResults(tb, label, tr, x, truths, err, rows, repeat)
}

// tupleAnswers evaluates the workload over tuples, predicate by predicate:
// the true answers, and the histogram over Transform's partitions or the
// error naming the first tuple outside the public domain.
func tupleAnswers(tr *Transformed, rows []dataset.Tuple) (truths, x []float64, err error) {
	truths = make([]float64, len(tr.preds))
	for _, row := range rows {
		for j, p := range tr.preds {
			if p.Eval(tr.schema, row) {
				truths[j]++
			}
		}
	}
	if !tr.Materialized() {
		return truths, nil, nil
	}
	x = make([]float64, tr.parts)
	for i, row := range rows {
		idx, sig := tr.partitionOf(row)
		if idx < 0 {
			return truths, nil, unseenSignature(i, sig)
		}
		x[idx]++
	}
	return truths, x, nil
}

func checkResults(tb testing.TB, label string, tr *Transformed, x, truths []float64, err error, rows []dataset.Tuple, repeat int) {
	tb.Helper()
	want, xr, errRows := tupleAnswers(tr, rows)
	for j := range want {
		if truths[j] != float64(repeat)*want[j] {
			tb.Fatalf("%s: TrueAnswers[%d] kernel %v, rows %d × %v (predicate %v)", label, j, truths[j], repeat, want[j], tr.preds[j])
		}
	}
	if !tr.Materialized() {
		return
	}
	if (err == nil) != (errRows == nil) || (err != nil && err.Error() != errRows.Error()) {
		tb.Fatalf("%s: Histogram error\nkernel: %v\nrows:   %v", label, err, errRows)
	}
	for p := range xr {
		if x[p] != float64(repeat)*xr[p] {
			tb.Fatalf("%s: Histogram[%d] kernel %v, rows %d × %v", label, p, x[p], repeat, xr[p])
		}
	}
}

// TestKernelMatchesRowPathAcrossStorage: random predicate trees — one
// component or several — over tables with NULLs, out-of-domain rows and
// misfit cells, in all four storage forms.
func TestKernelMatchesRowPathAcrossStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(20260927))
	s := kernelSchema(t)
	var sawError, sawHistogram bool
	sawExp := map[int]bool{}
	trials := 24
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		// Sizes straddle the morsel so first-bad-row parity crosses one.
		heap, rows := kernelTable(rng, s, 1+rng.Intn(3*morselRows), trial%2 == 1)
		forms := storageForms(t, heap)
		for pos := 5; pos <= 7; pos++ { // fare, tenth, mixed
			pv := forms["v2"].ColumnData(pos).PackedVals
			if pv == nil {
				t.Fatalf("trial %d: decimal column %d stayed raw in the segment", trial, pos)
			}
			sawExp[pv.Exp] = true
		}
		for w := 0; w < 6; w++ {
			preds := make([]dataset.Predicate, 1+rng.Intn(7))
			perm := rng.Perm(len(kernelNums))
			nums := []string{kernelNums[perm[0]], kernelNums[perm[1]], kernelNums[perm[2]]}
			for i := range preds {
				preds[i] = kernelPredicate(rng, nums, 2)
			}
			tr, err := Transform(s, preds, Options{})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if f := tr.kernels().fallback; f != "" {
				t.Fatalf("trial %d: compilable workload fell back (%s): %v", trial, f, preds)
			}
			for name, d := range forms {
				checkKernelAgainstRows(t, fmt.Sprintf("trial %d %s %v", trial, name, preds), tr, d, rows)
			}
			if tr.Materialized() {
				_, err := tr.Histogram(heap)
				sawError, sawHistogram = sawError || err != nil, sawHistogram || err == nil
			}
		}
	}
	if !sawError || !sawHistogram {
		t.Fatalf("generator is lopsided: out-of-domain error seen %v, clean histogram seen %v", sawError, sawHistogram)
	}
	if !sawExp[1] || !sawExp[2] || !sawExp[3] {
		t.Fatalf("decimal exponents seen: %v, want 1, 2 and 3", sawExp)
	}
}

// TestProjectedMatchesRowPath: random predicate trees over the narrow
// columns (age, state, flag — NULL lanes, an out-of-dictionary "other",
// misfit rows, cuts that are NaN, infinite or outside the domain), as one
// component or several (a joint histogram over the union column set),
// answered from a projection: the one the truth-only evaluation builds,
// then, hist-only, the held one. Out-of-domain errors must name the same
// first row as the row path.
func TestProjectedMatchesRowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(20261005))
	s := kernelSchema(t)
	var sawError, sawHistogram, sawJoint bool
	trials := 16
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		heap, rows := kernelTable(rng, s, 1+rng.Intn(3*morselRows), trial%2 == 1)
		for w := 0; w < 4; w++ {
			preds := make([]dataset.Predicate, 1+rng.Intn(7))
			for i := range preds {
				preds[i] = kernelPredicate(rng, []string{"age"}, 2)
			}
			tr, err := Transform(s, preds, Options{})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			label := fmt.Sprintf("trial %d projected %v", trial, preds)
			if !checkProjectedAgainstRows(t, label, tr, rows, 1<<13) {
				t.Fatalf("%s: columns %v have no projection", label, tr.kernels().cols)
			}
			if tr.Materialized() {
				_, err := tr.HistogramRows(heap)
				sawError, sawHistogram = sawError || err != nil, sawHistogram || err == nil
				sawJoint = sawJoint || len(tr.comps) > 1
			}
		}
	}
	if !sawError || !sawHistogram || !sawJoint {
		t.Fatalf("generator is lopsided: out-of-domain error seen %v, clean histogram seen %v, joint histogram seen %v", sawError, sawHistogram, sawJoint)
	}

	// Two shapes whose lane combinations outnumber the rows, so only their
	// occupied tuples make them eligible: a raw float64 column (frac:
	// random values next to repeated ones, −0 next to +0, NULLs and a
	// misfit string) and a sparse wide one (gain: 21-bit lanes, 65 values
	// plus the out-of-domain ones), alone or next to the categorical columns.
	for trial := 0; trial < trials; trial++ {
		_, rows := kernelTable(rng, s, 1+rng.Intn(3*morselRows), true)
		for _, frac := range []dataset.Value{dataset.Num(math.Copysign(0, -1)), dataset.Num(0), dataset.Null, dataset.Str("oops")} {
			rows = append(rows, dataset.Tuple{dataset.Num(7), dataset.Num(1 << 18), frac, dataset.Str("CA"), dataset.Str("y"),
				dataset.Num(1), dataset.Num(1), dataset.Num(1)})
		}
		for _, attr := range []string{"frac", "gain"} {
			preds := make([]dataset.Predicate, 1+rng.Intn(7))
			for i := range preds {
				preds[i] = kernelPredicate(rng, []string{attr}, 2)
			}
			tr, err := Transform(s, preds, Options{})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			label := fmt.Sprintf("trial %d projected %s %v", trial, attr, preds)
			if !checkProjectedAgainstRows(t, label, tr, rows, len(rows)) {
				t.Fatalf("%s: columns %v have no projection", label, tr.kernels().cols)
			}
		}
	}
}

// TestKernelWorkloadShapes pins the shapes the predicate-at-a-time
// evaluator special-cased: a component wider than one signature word, a
// multi-component histogram, an implicit-but-componentised workload
// (truths from per-component counts), and cuts that leave [Min, Max].
// Every one must take the kernel, at one pass per referenced column (two
// where the table's attempt to project the set aborts first).
func TestKernelWorkloadShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := kernelSchema(t)
	wide, err := Histogram1D("age", 0, 100, 100.0/70) // 70 predicates, one component
	if err != nil {
		t.Fatal(err)
	}
	gains, err := Prefix1D("gain", 0, 1<<20, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	states := CategoryPredicates("state", []string{"CA", "NY", "TX"})
	cases := []struct {
		name  string
		preds []dataset.Predicate
		opt   Options
		cols  int
		mat   bool
	}{
		{"wide-component", wide, Options{}, 1, true},
		{"multi-component", append(append(append([]dataset.Predicate{}, wide[:9]...), gains...), states...), Options{}, 3, true},
		{"implicit-componentised", append(append([]dataset.Predicate{}, gains...), states...), Options{MaxPartitions: 8}, 2, false},
		{"cuts-outside-domain", []dataset.Predicate{
			dataset.Range{Attr: "age", Lo: -50, Hi: 20},
			dataset.NumCmp{Attr: "age", Op: dataset.Ge, C: 20},
			dataset.And{dataset.NumCmp{Attr: "frac", Op: dataset.Lt, C: 5}, dataset.StrEq{Attr: "flag", Val: "y"}},
		}, Options{}, 3, true},
	}
	for _, wild := range []bool{false, true} {
		heap, rows := kernelTable(rng, s, 2*morselRows+77, wild)
		forms := storageForms(t, heap)
		for _, c := range cases {
			cache := NewTransformCache(c.opt)
			tr, err := cache.Transform(s, Key(c.preds), c.preds)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if tr.Materialized() != c.mat {
				t.Fatalf("%s: Materialized() = %v, want %v", c.name, tr.Materialized(), c.mat)
			}
			for name, d := range forms {
				_, before := d.PlannedProjection(tr.kernels().cols)
				st := cache.EvaluateBatch(d, []BatchItem{{Tr: tr, Histogram: true, Truth: true}})
				passes := c.cols
				if _, after := d.PlannedProjection(tr.kernels().cols); before == dataset.ProjectionBuild && after == dataset.ProjectionIneligible {
					passes *= 2 // the aborted projection build's attempt, then the row pass
				}
				if cols := tr.kernels().cols; st.ColumnPasses != passes || len(cols) != c.cols || st.Fallbacks != nil {
					t.Fatalf("%s %s: %d passes over columns %v, fallbacks %v; want %d over the %d columns",
						c.name, name, st.ColumnPasses, cols, st.Fallbacks, passes, c.cols)
				}
				if st.Rows != int64(passes*d.Size()) {
					t.Fatalf("%s %s: Rows = %d, want %d", c.name, name, st.Rows, passes*d.Size())
				}
				checkKernelAgainstRows(t, fmt.Sprintf("%s %s wild=%v", c.name, name, wild), tr, d, rows)
			}
		}
	}
}

// TestKernelGridFallback: cuts outside [Min, Max] enlarge the kernel's
// grid but not Transform's; past the cell cap the workload must take the
// row path — counted, with identical answers — not build the table.
func TestKernelGridFallback(t *testing.T) {
	s := kernelSchema(t)
	var preds []dataset.Predicate
	for i := 0; i < 60; i++ {
		c := float64(200 + i)
		preds = append(preds, dataset.And{
			dataset.NumCmp{Attr: "age", Op: dataset.Lt, C: c},
			dataset.NumCmp{Attr: "gain", Op: dataset.Lt, C: 1<<21 + c},
			dataset.NumCmp{Attr: "frac", Op: dataset.Lt, C: c},
		})
	}
	cache := NewTransformCache(Options{})
	tr, err := cache.Transform(s, Key(preds), preds)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Materialized() {
		t.Fatal("out-of-range cuts must not enlarge Transform's own grid")
	}
	d, rows := kernelTable(rand.New(rand.NewSource(3)), s, 500, true)
	st := cache.EvaluateBatch(d, []BatchItem{{Tr: tr, Histogram: true, Truth: true}})
	if st.Fallbacks[FallbackGrid] != 1 || st.ColumnPasses != 0 {
		t.Fatalf("stats = %+v, want one grid fallback and no column passes", st)
	}
	if _, _, ok := tr.ScanPlan(d); ok {
		t.Fatal("ScanPlan claims a columnar plan for a row-path workload")
	}
	checkKernelAgainstRows(t, "grid fallback", tr, d, rows)
}

// FuzzClassifyMatchesEval lets the fuzzer choose the cut constants (raw
// float64 bit patterns: NaNs, infinities, denormals, adjacent floats),
// the frame-of-reference base and lane width, the lanes and the predicate
// shapes. Column "v" holds base+lane — packed, it classifies by lookup
// table up to 16-bit lanes and by integer lane thresholds above; narrow
// columns additionally hold every lane once. Column "f" holds the cut
// constants themselves and their neighbours, raw float64 unless they are
// short decimals. The atom → cell → signature chain must then equal
// predicate-by-predicate Eval over the appended tuples on the sealed table
// and on its values widened to raw float64 alike — and answered from the
// projection of those rows repeated until the set is eligible.
// (dataset's FuzzLaneThresholds checks the integer thresholds themselves
// on every lane of a narrow column.)
func FuzzClassifyMatchesEval(f *testing.F) {
	bits := func(xs ...float64) []byte {
		var out []byte
		for _, x := range xs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
		}
		return out
	}
	f.Add(uint8(9), int64(1), bits(3, 23, 43.5, 263), []byte{0, 17, 200, 9, 255, 1}, []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint8(20), int64(-5000), bits(-5000, 0, math.Copysign(0, -1), 1<<19, 1e300), []byte{1, 2, 3, 4, 250, 251, 252, 253}, []byte{7, 6, 5, 4, 3, 2, 1, 0, 9, 33})
	f.Add(uint8(32), int64(1)<<40, bits(math.NaN(), math.Inf(1), math.Inf(-1), float64(int64(1)<<40)+0.5), []byte{0, 0, 0, 0, 255, 255, 255, 255}, []byte{2, 10, 18, 26, 34, 42})
	f.Add(uint8(1), int64(0), bits(0.5, math.Nextafter(0.5, 1), 5e-324), []byte{1, 0, 1}, []byte{4, 12, 20, 28})
	// Every shape over "f" — a raw column of thirds, −0 next to +0 and
	// NULLs — alone and next to a 16-bit "v".
	f.Add(uint8(15), int64(7), bits(1.0/3, math.Copysign(0, -1), 0, 2.0/3, -1.0/3), []byte{9, 0, 0, 0, 77, 1, 0, 0, 255, 255, 0, 0}, []byte{8, 9, 10, 11, 12, 13, 14, 15, 30, 46})
	f.Add(uint8(31), int64(-3), bits(math.Pi, math.Copysign(0, -1), math.Inf(-1), math.NaN()), []byte{3, 3, 3, 3, 200, 0, 0, 1}, []byte{14, 13, 9, 8, 11})
	f.Fuzz(func(t *testing.T, width uint8, base int64, cutBits, laneBytes, shapes []byte) {
		w := 1 + int(width)%32
		base %= 1 << 41 // |base| + lane stays exactly representable
		top := uint64(1)<<uint(w) - 1
		cuts := []float64{float64(base)}
		for ; len(cutBits) >= 8 && len(cuts) < 12; cutBits = cutBits[8:] {
			cuts = append(cuts, math.Float64frombits(binary.LittleEndian.Uint64(cutBits)))
		}
		s, err := dataset.NewSchema(
			dataset.Attribute{Name: "v", Kind: dataset.Continuous, Min: float64(base), Max: float64(base) + float64(top)},
			dataset.Attribute{Name: "f", Kind: dataset.Continuous, Min: -1, Max: 1},
			dataset.Attribute{Name: "c", Kind: dataset.Categorical, Values: []string{"a", "b"}},
		)
		if err != nil {
			t.Skip()
		}

		lanes := []uint64{0, top} // pin the packed width to w
		if w <= 8 {
			for l := uint64(0); l <= top; l++ {
				lanes = append(lanes, l)
			}
		}
		for i := 0; i+4 <= len(laneBytes) && len(lanes) < 600; i += 4 {
			lanes = append(lanes, uint64(binary.LittleEndian.Uint32(laneBytes[i:]))&top)
		}
		var rows []dataset.Tuple
		for i, l := range lanes {
			c := cuts[i%len(cuts)]
			row := dataset.Tuple{
				dataset.Num(float64(base) + float64(l)),
				dataset.Num([]float64{c, math.Nextafter(c, math.Inf(1)), math.Nextafter(c, math.Inf(-1))}[i%3]),
				dataset.Str([]string{"a", "b", "zz"}[l%3]),
			}
			if i%11 == 10 {
				row[i%3] = dataset.Null
			}
			rows = append(rows, row)
		}
		pick := func(b byte) float64 { return cuts[int(b)%len(cuts)] }
		var preds []dataset.Predicate
		for i, b := range shapes {
			if len(preds) == 10 {
				break
			}
			attr := []string{"v", "f"}[(b>>3)&1]
			var p dataset.Predicate
			switch b & 7 {
			case 0, 1:
				p = dataset.Range{Attr: attr, Lo: pick(b >> 4), Hi: pick(b>>4 + 1)}
			case 2, 3, 4:
				p = dataset.NumCmp{Attr: attr, Op: dataset.CmpOp(int(b>>4) % 6), C: pick(byte(i))}
			case 5:
				p = dataset.And{dataset.NumCmp{Attr: attr, Op: dataset.Lt, C: pick(b >> 4)}, dataset.StrEq{Attr: "c", Val: []string{"a", "zz"}[b>>7]}}
			case 6:
				p = dataset.Or{dataset.IsNull{Attr: attr}, dataset.NumCmp{Attr: "v", Op: dataset.Ge, C: pick(b >> 4)}}
			default:
				p = dataset.Not{P: dataset.Range{Attr: attr, Lo: pick(b >> 4), Hi: math.Inf(1)}}
			}
			preds = append(preds, p)
		}
		if len(preds) == 0 {
			t.Skip()
		}
		tr, err := Transform(s, preds, Options{})
		if err != nil {
			t.Skip()
		}
		packed := repeatedTable(s, rows, 1)
		checkKernelAgainstRows(t, fmt.Sprintf("w=%d base=%d packed %v", w, base, preds), tr, packed, rows)
		checkKernelAgainstRows(t, fmt.Sprintf("w=%d base=%d raw %v", w, base, preds), tr, rawForm(t, packed), rows)
		checkProjectedAgainstRows(t, fmt.Sprintf("w=%d base=%d projected %v", w, base, preds), tr, rows, 1<<12)
	})
}
