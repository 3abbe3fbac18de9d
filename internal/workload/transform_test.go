package workload

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/linalg"
)

func schemaFixture(t *testing.T) *dataset.Schema {
	t.Helper()
	return dataset.MustSchema(
		dataset.Attribute{Name: "gain", Kind: dataset.Continuous, Min: 0, Max: 5000},
		dataset.Attribute{Name: "age", Kind: dataset.Continuous, Min: 0, Max: 100},
		dataset.Attribute{Name: "sex", Kind: dataset.Categorical, Values: []string{"M", "F"}},
		dataset.Attribute{Name: "state", Kind: dataset.Categorical, Values: []string{"AL", "AK", "WY"}},
	)
}

func mustTransform(t *testing.T, s *dataset.Schema, preds []dataset.Predicate) *Transformed {
	t.Helper()
	tr, err := Transform(s, preds, Options{})
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	return tr
}

func TestTransformEmptyWorkload(t *testing.T) {
	if _, err := Transform(schemaFixture(t), nil, Options{}); err == nil {
		t.Fatal("empty workload must error")
	}
}

func TestHistogramWorkloadShape(t *testing.T) {
	s := schemaFixture(t)
	preds, err := Histogram1D("gain", 0, 500, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 10 {
		t.Fatalf("want 10 bins, got %d", len(preds))
	}
	tr := mustTransform(t, s, preds)
	if !tr.Materialized() {
		t.Fatal("histogram workload must materialize")
	}
	// Disjoint bins: sensitivity 1.
	if tr.Sensitivity() != 1 {
		t.Fatalf("sensitivity = %v, want 1", tr.Sensitivity())
	}
	// 10 bins + the catch-all (gain >= 500 or NULL) = 11 partitions.
	if tr.NumPartitions() != 11 {
		t.Fatalf("partitions = %d, want 11", tr.NumPartitions())
	}
	if got := tr.Matrix().L1Norm(); got != 1 {
		t.Fatalf("matrix L1 = %v, want 1 (must equal sensitivity)", got)
	}
}

func TestPrefixWorkloadSensitivity(t *testing.T) {
	s := schemaFixture(t)
	preds, err := Prefix1D("gain", 0, 500, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 10 {
		t.Fatalf("want 10 prefixes, got %d", len(preds))
	}
	tr := mustTransform(t, s, preds)
	// A tuple in [0,50) satisfies every prefix: sensitivity = L.
	if tr.Sensitivity() != 10 {
		t.Fatalf("sensitivity = %v, want 10", tr.Sensitivity())
	}
	if got := tr.Matrix().L1Norm(); got != 10 {
		t.Fatalf("matrix L1 = %v, want 10", got)
	}
}

func TestTransformMatrixMatchesDirectCounts(t *testing.T) {
	s := schemaFixture(t)
	preds, err := Histogram1D("gain", 0, 500, 50)
	if err != nil {
		t.Fatal(err)
	}
	tr := mustTransform(t, s, preds)

	d := dataset.NewTable(s)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		d.MustAppend(dataset.Tuple{
			dataset.Num(rng.Float64() * 600), // some rows beyond the last bin
			dataset.Num(float64(rng.Intn(100))),
			dataset.Str("M"),
			dataset.Str("AL"),
		})
	}
	x, err := tr.Histogram(d)
	if err != nil {
		t.Fatal(err)
	}
	viaMatrix, err := tr.Matrix().MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	direct := tr.TrueAnswers(d)
	for i := range direct {
		if viaMatrix[i] != direct[i] {
			t.Fatalf("bin %d: Wx=%v direct=%v", i, viaMatrix[i], direct[i])
		}
	}
	// Histogram mass equals |D|.
	var total float64
	for _, v := range x {
		total += v
	}
	if total != 500 {
		t.Fatalf("histogram mass %v, want 500", total)
	}
}

func TestPrefixMatrixMatchesDirectCounts(t *testing.T) {
	s := schemaFixture(t)
	preds, err := Prefix1D("gain", 0, 5000, 50)
	if err != nil {
		t.Fatal(err)
	}
	tr := mustTransform(t, s, preds)
	if tr.L() != 100 {
		t.Fatalf("L = %d", tr.L())
	}
	d := dataset.NewTable(s)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 300; i++ {
		d.MustAppend(dataset.Tuple{
			dataset.Num(rng.Float64() * 5000),
			dataset.Num(50),
			dataset.Str("F"),
			dataset.Str("WY"),
		})
	}
	x, err := tr.Histogram(d)
	if err != nil {
		t.Fatal(err)
	}
	viaMatrix, err := tr.Matrix().MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	direct := tr.TrueAnswers(d)
	for i := range direct {
		if viaMatrix[i] != direct[i] {
			t.Fatalf("prefix %d: Wx=%v direct=%v", i, viaMatrix[i], direct[i])
		}
	}
	// Prefix counts must be monotone.
	for i := 1; i < len(direct); i++ {
		if direct[i] < direct[i-1] {
			t.Fatalf("prefix counts not monotone at %d: %v < %v", i, direct[i], direct[i-1])
		}
	}
}

func TestTwoAttributeConjunction(t *testing.T) {
	s := schemaFixture(t)
	// QI2-style workload: gain range × sex.
	var preds []dataset.Predicate
	for b := 0.0; b < 500; b += 100 {
		for _, sex := range []string{"M", "F"} {
			preds = append(preds, dataset.And{
				dataset.Range{Attr: "gain", Lo: b, Hi: b + 100},
				dataset.StrEq{Attr: "sex", Val: sex},
			})
		}
	}
	tr := mustTransform(t, s, preds)
	if tr.Sensitivity() != 1 {
		t.Fatalf("disjoint 2D bins must have sensitivity 1, got %v", tr.Sensitivity())
	}
	d := dataset.NewTable(s)
	d.MustAppend(dataset.Tuple{dataset.Num(150), dataset.Num(1), dataset.Str("M"), dataset.Str("AL")})
	d.MustAppend(dataset.Tuple{dataset.Num(150), dataset.Num(1), dataset.Str("F"), dataset.Str("AL")})
	got := tr.TrueAnswers(d)
	var nonzero int
	for _, v := range got {
		if v > 0 {
			nonzero++
		}
	}
	if nonzero != 2 {
		t.Fatalf("expected exactly two nonzero bins, got %v", got)
	}
}

func TestDisjointAttributesComponents(t *testing.T) {
	s := schemaFixture(t)
	// Predicates over unrelated attributes split into separate components;
	// sensitivity adds up because one tuple can satisfy one per component.
	preds := []dataset.Predicate{
		dataset.NumCmp{Attr: "gain", Op: dataset.Gt, C: 100},
		dataset.NumCmp{Attr: "age", Op: dataset.Gt, C: 50},
		dataset.StrEq{Attr: "sex", Val: "M"},
	}
	tr := mustTransform(t, s, preds)
	if tr.Sensitivity() != 3 {
		t.Fatalf("sensitivity = %v, want 3", tr.Sensitivity())
	}
	if tr.Materialized() && tr.Matrix().L1Norm() != 3 {
		t.Fatalf("matrix L1 = %v, want 3", tr.Matrix().L1Norm())
	}
}

func TestImplicitTransformation(t *testing.T) {
	// 40 predicates on 40 distinct attributes => 2^40 partitions: implicit.
	attrs := make([]dataset.Attribute, 40)
	preds := make([]dataset.Predicate, 40)
	for i := range attrs {
		name := "a" + strings.Repeat("x", i+1)
		attrs[i] = dataset.Attribute{Name: name, Kind: dataset.Continuous, Min: 0, Max: 1}
		preds[i] = dataset.NumCmp{Attr: name, Op: dataset.Gt, C: 0.5}
	}
	s := dataset.MustSchema(attrs...)
	tr, err := Transform(s, preds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Materialized() {
		t.Fatal("must stay implicit")
	}
	if tr.NumPartitions() != -1 {
		t.Fatalf("partitions = %d, want -1", tr.NumPartitions())
	}
	if tr.Sensitivity() != 40 {
		t.Fatalf("sensitivity = %v, want 40", tr.Sensitivity())
	}
	if _, err := tr.Histogram(dataset.NewTable(s)); err == nil {
		t.Fatal("implicit histogram must error")
	}
	if tr.MatrixFingerprint() != (Fingerprint{}) {
		t.Fatal("no matrix, so the zero fingerprint")
	}
	// TrueAnswers still works.
	d := dataset.NewTable(s)
	row := make(dataset.Tuple, 40)
	for i := range row {
		row[i] = dataset.Num(0.9)
	}
	d.MustAppend(row)
	ans := tr.TrueAnswers(d)
	for i, v := range ans {
		if v != 1 {
			t.Fatalf("answer %d = %v, want 1", i, v)
		}
	}
}

func TestNullHandling(t *testing.T) {
	s := schemaFixture(t)
	preds := []dataset.Predicate{
		dataset.IsNull{Attr: "gain"},
		dataset.NumCmp{Attr: "gain", Op: dataset.Gt, C: 100},
	}
	tr := mustTransform(t, s, preds)
	d := dataset.NewTable(s)
	d.MustAppend(dataset.Tuple{dataset.Null, dataset.Num(1), dataset.Str("M"), dataset.Str("AL")})
	d.MustAppend(dataset.Tuple{dataset.Num(500), dataset.Num(1), dataset.Str("M"), dataset.Str("AL")})
	x, err := tr.Histogram(d)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := tr.Matrix().MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	if ans[0] != 1 || ans[1] != 1 {
		t.Fatalf("answers = %v, want [1 1]", ans)
	}
}

func TestUnknownAttributeErrors(t *testing.T) {
	s := schemaFixture(t)
	_, err := Transform(s, []dataset.Predicate{dataset.NumCmp{Attr: "bogus", Op: dataset.Gt, C: 1}}, Options{})
	if err == nil {
		t.Fatal("unknown attribute must error")
	}
}

func TestUninstrospectablePredicateErrors(t *testing.T) {
	s := schemaFixture(t)
	f := dataset.Func{Name: "opaque", ReadAttrs: []string{"gain"}, Fn: func(*dataset.Schema, dataset.Tuple) bool { return true }}
	if _, err := Transform(s, []dataset.Predicate{f}, Options{}); err == nil {
		t.Fatal("opaque Func must error without BreakpointProvider")
	}
}

// funcWithBreakpoints wraps dataset.Func with declared breakpoints.
type funcWithBreakpoints struct {
	dataset.Func
	bps map[string][]float64
}

func (f funcWithBreakpoints) Breakpoints() map[string][]float64 { return f.bps }

func TestBreakpointProviderFunc(t *testing.T) {
	s := schemaFixture(t)
	f := funcWithBreakpoints{
		Func: dataset.Func{
			Name:      "gain-mid",
			ReadAttrs: []string{"gain"},
			Fn: func(sc *dataset.Schema, tp dataset.Tuple) bool {
				i, _ := sc.Lookup("gain")
				v, ok := tp[i].AsNum()
				return ok && v >= 100 && v < 200
			},
		},
		bps: map[string][]float64{"gain": {100, 200}},
	}
	tr := mustTransform(t, s, []dataset.Predicate{f})
	d := dataset.NewTable(s)
	d.MustAppend(dataset.Tuple{dataset.Num(150), dataset.Num(1), dataset.Str("M"), dataset.Str("AL")})
	d.MustAppend(dataset.Tuple{dataset.Num(250), dataset.Num(1), dataset.Str("M"), dataset.Str("AL")})
	x, err := tr.Histogram(d)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := tr.Matrix().MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	if ans[0] != 1 {
		t.Fatalf("answer = %v, want 1", ans[0])
	}
}

func TestCategoryAndPointBuilders(t *testing.T) {
	s := schemaFixture(t)
	cats := CategoryPredicates("state", []string{"AL", "AK", "WY"})
	tr := mustTransform(t, s, cats)
	if tr.Sensitivity() != 1 {
		t.Fatalf("category sensitivity = %v", tr.Sensitivity())
	}
	// 3 states + NULL partition = 4.
	if tr.NumPartitions() != 4 {
		t.Fatalf("partitions = %d, want 4", tr.NumPartitions())
	}
	pts := PointPredicates("age", []float64{0, 1, 2})
	tr2 := mustTransform(t, s, pts)
	if tr2.Sensitivity() != 1 {
		t.Fatalf("point sensitivity = %v", tr2.Sensitivity())
	}
}

func TestBuilderValidation(t *testing.T) {
	if _, err := Histogram1D("g", 0, 10, 0); err == nil {
		t.Fatal("zero width must error")
	}
	if _, err := Histogram1D("g", 10, 0, 1); err == nil {
		t.Fatal("inverted bounds must error")
	}
	if _, err := Prefix1D("g", 0, 10, -1); err == nil {
		t.Fatal("negative width must error")
	}
	if _, err := Histogram2D("a", 0, 10, 0, "b", 0, 1, 1); err == nil {
		t.Fatal("bad first dim must error")
	}
	if _, err := Histogram2D("a", 0, 10, 1, "b", 0, 1, 0); err == nil {
		t.Fatal("bad second dim must error")
	}
}

func TestHistogram2DBuilder(t *testing.T) {
	s := schemaFixture(t)
	preds, err := Histogram2D("gain", 0, 200, 100, "age", 0, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 4 {
		t.Fatalf("want 4 cells, got %d", len(preds))
	}
	tr := mustTransform(t, s, preds)
	if tr.Sensitivity() != 1 {
		t.Fatalf("2D grid sensitivity = %v", tr.Sensitivity())
	}
}

// Property: for any data, Histogram mass == |D| and Wx == TrueAnswers.
func TestHistogramMassInvariant(t *testing.T) {
	s := schemaFixture(t)
	preds, err := Histogram2D("gain", 0, 1000, 200, "age", 0, 100, 25)
	if err != nil {
		t.Fatal(err)
	}
	tr := mustTransform(t, s, preds)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		n := rng.Intn(200)
		d := dataset.NewTable(s)
		for i := 0; i < n; i++ {
			d.MustAppend(dataset.Tuple{
				dataset.Num(rng.Float64() * 5000),
				dataset.Num(rng.Float64() * 100),
				dataset.Str([]string{"M", "F"}[rng.Intn(2)]),
				dataset.Str("AL"),
			})
		}
		x, err := tr.Histogram(d)
		if err != nil {
			t.Fatal(err)
		}
		var mass float64
		for _, v := range x {
			mass += v
		}
		if int(mass) != n {
			t.Fatalf("trial %d: mass %v != %d", trial, mass, n)
		}
		wx, err := tr.Matrix().MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		direct := tr.TrueAnswers(d)
		if linalg.LInfNorm(mustSub(t, wx, direct)) != 0 {
			t.Fatalf("trial %d: Wx != direct", trial)
		}
	}
}

func mustSub(t *testing.T, a, b []float64) []float64 {
	t.Helper()
	d, err := linalg.Sub(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestOversizedComponentFallsBackToImplicit(t *testing.T) {
	// One component over 8 attributes, each with many breakpoints, exceeds
	// a tiny cell cap: Transform must stay implicit with the sensitivity
	// upper bound rather than erroring.
	attrs := make([]dataset.Attribute, 8)
	for i := range attrs {
		attrs[i] = dataset.Attribute{Name: string(rune('a' + i)), Kind: dataset.Continuous, Min: 0, Max: 1}
	}
	s := dataset.MustSchema(attrs...)
	// Connect all attributes into one component via a chained conjunction.
	var conj dataset.And
	for i := range attrs {
		conj = append(conj, dataset.NumCmp{Attr: attrs[i].Name, Op: dataset.Gt, C: 0.5})
	}
	preds := []dataset.Predicate{conj, dataset.NumCmp{Attr: "a", Op: dataset.Lt, C: 0.2}}
	tr, err := Transform(s, preds, Options{MaxCellsPerComponent: 10})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Materialized() {
		t.Fatal("must stay implicit")
	}
	if tr.Sensitivity() != 2 {
		t.Fatalf("sensitivity upper bound = %v, want 2", tr.Sensitivity())
	}
	d := dataset.NewTable(s)
	row := make(dataset.Tuple, 8)
	for i := range row {
		row[i] = dataset.Num(0.9)
	}
	d.MustAppend(row)
	ans := tr.TrueAnswers(d)
	if ans[0] != 1 || ans[1] != 0 {
		t.Fatalf("answers = %v", ans)
	}
}

func TestAllRanges1D(t *testing.T) {
	s := schemaFixture(t)
	preds, err := AllRanges1D("age", 0, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	// n = 4 bins: 4·5/2 = 10 ranges.
	if len(preds) != 10 {
		t.Fatalf("want 10 ranges, got %d", len(preds))
	}
	tr := mustTransform(t, s, preds)
	// A tuple in the first bin is inside ranges [0,10),[0,20),[0,30),[0,40): 4.
	// Middle bins participate in more ranges: bin 1 is inside i<=1<j: i∈{0,1}, j∈{2,3,4} => 6.
	if tr.Sensitivity() != 6 {
		t.Fatalf("all-ranges sensitivity = %v, want 6", tr.Sensitivity())
	}
	if _, err := AllRanges1D("age", 10, 0, 1); err == nil {
		t.Fatal("inverted bounds must error")
	}
}

func TestMarginals2D(t *testing.T) {
	s := schemaFixture(t)
	preds, err := Marginals2D("age", 0, 100, 25, "gain", 0, 1000, 250)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 8 {
		t.Fatalf("want 4+4 marginal bins, got %d", len(preds))
	}
	tr := mustTransform(t, s, preds)
	if tr.Sensitivity() != 2 {
		t.Fatalf("marginal sensitivity = %v, want 2", tr.Sensitivity())
	}
	if _, err := Marginals2D("age", 0, 0, 1, "gain", 0, 1, 1); err == nil {
		t.Fatal("bad first marginal must error")
	}
	if _, err := Marginals2D("age", 0, 1, 1, "gain", 0, 0, 1); err == nil {
		t.Fatal("bad second marginal must error")
	}
}

// TestMatrixFingerprint: the fingerprint is a pure function of the query
// matrix — dimensions, entries, row and column order — and of nothing
// else: not the predicate constants, not the attribute, not the process.
func TestMatrixFingerprint(t *testing.T) {
	s := schemaFixture(t)
	hist := func(attr string, lo, w float64, bins int) *Transformed {
		preds, err := Histogram1D(attr, lo, lo+w*float64(bins), w)
		if err != nil {
			t.Fatal(err)
		}
		return mustTransform(t, s, preds)
	}
	base := hist("age", 10, 10, 4)
	fp := base.MatrixFingerprint()

	// A 4×5 matrix — one all-zero column (below, above and NULL fold into
	// it), then one column per bin — hashed as
	// SHA-256("apex/matrix/v1\x004\x005\x00" ‖ 02 04 08 10). Pinned so a
	// change to the hash input is a deliberate, sidecar-versioned act.
	const golden = "450ceb97"
	if got := fmt.Sprintf("%x", fp[:4]); got != golden {
		t.Logf("matrix:\n%s", base.Matrix())
		t.Fatalf("fingerprint prefix = %s, want %s (changing the hash input invalidates every persisted translate.tc: bump its version)", got, golden)
	}
	if fp != fingerprintMatrix(base.Matrix().Clone()) {
		t.Fatal("fingerprint is not a pure function of the matrix")
	}

	for name, tr := range map[string]*Transformed{
		"slid":            hist("age", 11.125, 10, 4),
		"stretched":       hist("age", 3, 21.5, 4),
		"other attribute": hist("gain", 100, 500, 4),
	} {
		if tr.MatrixFingerprint() != fp {
			t.Errorf("%s histogram: same matrix, different fingerprint", name)
		}
	}
	rotated := append([]dataset.Predicate{}, base.Predicates()[1:]...)
	rotated = append(rotated, base.Predicates()[0])
	for name, tr := range map[string]*Transformed{
		"other L":         hist("age", 10, 10, 5),
		"origin at Min":   hist("age", 0, 10, 4),
		"rows reordered":  mustTransform(t, s, rotated),
		"prefix, not bin": mustTransform(t, s, mustPrefix(t, "age", 10, 50, 10)),
	} {
		if tr.MatrixFingerprint() == fp {
			t.Errorf("%s: different matrix, same fingerprint", name)
		}
	}

	// Same bits, other dimensions: a 1×2 and a 2×1 matrix of ones.
	row, col := linalg.NewMatrix(1, 2), linalg.NewMatrix(2, 1)
	row.Set(0, 0, 1)
	row.Set(0, 1, 1)
	col.Set(0, 0, 1)
	col.Set(1, 0, 1)
	if fingerprintMatrix(row) == fingerprintMatrix(col) {
		t.Fatal("fingerprint ignores the dimensions")
	}
}

func mustPrefix(t *testing.T, attr string, lo, hi, w float64) []dataset.Predicate {
	t.Helper()
	preds, err := Prefix1D(attr, lo, hi, w)
	if err != nil {
		t.Fatal(err)
	}
	return preds
}

func TestIDStable(t *testing.T) {
	a, b := ID("k1\x00k2"), ID("k1\x00k2")
	if a != b || a == "" || a[0] != 'w' {
		t.Fatalf("ID unstable or malformed: %q vs %q", a, b)
	}
	if ID("other") == a {
		t.Fatal("distinct keys collide trivially")
	}
}
