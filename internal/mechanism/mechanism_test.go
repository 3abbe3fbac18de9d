package mechanism

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/dataset"
	"repro/internal/noise"
	"repro/internal/query"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// fixture builds a small table over one continuous attribute with a known
// histogram, plus transformed workloads.
type fixture struct {
	schema *dataset.Schema
	table  *dataset.Table
}

func newFixture(t *testing.T, counts []int, binWidth float64) *fixture {
	t.Helper()
	s := dataset.MustSchema(
		dataset.Attribute{Name: "v", Kind: dataset.Continuous, Min: 0, Max: binWidth * float64(len(counts))},
	)
	tab := dataset.NewTable(s)
	for bin, n := range counts {
		for i := 0; i < n; i++ {
			tab.MustAppend(dataset.Tuple{dataset.Num(binWidth*float64(bin) + binWidth/2)})
		}
	}
	return &fixture{schema: s, table: tab}
}

func (f *fixture) histogramQuery(t *testing.T, bins int, width float64, req accuracy.Requirement) (*query.Query, *workload.Transformed) {
	t.Helper()
	preds, err := workload.Histogram1D("v", 0, width*float64(bins), width)
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.NewWCQ(preds, req)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Transform(f.schema, preds, workload.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return q, tr
}

// translateAndRun runs m at the cost it translates (q, tr) to — Algorithm
// 1's translate-then-run, as the engine drives it.
func translateAndRun(m Mechanism, q *query.Query, tr *workload.Transformed, d *dataset.Table, rng *rand.Rand) (*Result, error) {
	cost, err := m.Translate(q, tr)
	if err != nil {
		return nil, err
	}
	return m.Run(q, tr, d, rng, cost)
}

func TestLMTranslateFormulas(t *testing.T) {
	f := newFixture(t, []int{10, 20, 30, 40}, 10)
	req := accuracy.Requirement{Alpha: 5, Beta: 0.05}
	q, tr := f.histogramQuery(t, 4, 10, req)

	cost, err := LM{}.Translate(q, tr)
	if err != nil {
		t.Fatal(err)
	}
	l := 4.0
	want := 1 * math.Log(1/(1-math.Pow(1-0.05, 1/l))) / 5
	if math.Abs(cost.Upper-want) > 1e-9 {
		t.Fatalf("WCQ eps = %v, want %v", cost.Upper, want)
	}
	if cost.Lower != cost.Upper {
		t.Fatal("LM is data independent: lower must equal upper")
	}

	// ICQ: subtract ln 2.
	qi, err := query.NewICQ(q.Predicates, 25, req)
	if err != nil {
		t.Fatal(err)
	}
	ci, err := LM{}.Translate(qi, tr)
	if err != nil {
		t.Fatal(err)
	}
	wantICQ := 1 * (math.Log(1/(1-math.Pow(1-0.05, 1/l))) - math.Ln2) / 5
	if math.Abs(ci.Upper-wantICQ) > 1e-9 {
		t.Fatalf("ICQ eps = %v, want %v", ci.Upper, wantICQ)
	}

	// TCQ: 2·ln(L/2β)/α.
	qt, err := query.NewTCQ(q.Predicates, 2, req)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := LM{}.Translate(qt, tr)
	if err != nil {
		t.Fatal(err)
	}
	wantTCQ := 1 * 2 * math.Log(l/(2*0.05)) / 5
	if math.Abs(ct.Upper-wantTCQ) > 1e-9 {
		t.Fatalf("TCQ eps = %v, want %v", ct.Upper, wantTCQ)
	}
}

func TestLMSensitivityScalesCost(t *testing.T) {
	// Prefix workload has sensitivity L: LM's cost must be ~L× the
	// disjoint histogram's.
	f := newFixture(t, []int{10, 10, 10, 10, 10, 10, 10, 10}, 10)
	req := accuracy.Requirement{Alpha: 5, Beta: 0.05}
	_, trHist := f.histogramQuery(t, 8, 10, req)

	prefix, err := workload.Prefix1D("v", 0, 80, 10)
	if err != nil {
		t.Fatal(err)
	}
	qp, err := query.NewWCQ(prefix, req)
	if err != nil {
		t.Fatal(err)
	}
	trPrefix, err := workload.Transform(f.schema, prefix, workload.Options{})
	if err != nil {
		t.Fatal(err)
	}
	qh, err := query.NewWCQ(trHist.Predicates(), req)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := LM{}.Translate(qh, trHist)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := LM{}.Translate(qp, trPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := cp.Upper / ch.Upper; math.Abs(ratio-8) > 1e-9 {
		t.Fatalf("prefix/histogram cost ratio = %v, want 8", ratio)
	}
}

// TestLMAccuracyGuarantee verifies empirically that LM meets (α, β)-WCQ
// accuracy: the max error exceeds α in at most ~β of runs.
func TestLMAccuracyGuarantee(t *testing.T) {
	f := newFixture(t, []int{50, 100, 150, 200}, 10)
	req := accuracy.Requirement{Alpha: 20, Beta: 0.1}
	q, tr := f.histogramQuery(t, 4, 10, req)
	truth := tr.TrueAnswers(f.table)

	rng := noise.NewRand(123)
	const runs = 2000
	var failures int
	for i := 0; i < runs; i++ {
		res, err := translateAndRun(LM{}, q, tr, f.table, rng)
		if err != nil {
			t.Fatal(err)
		}
		e, err := accuracy.WCQError(truth, res.Counts)
		if err != nil {
			t.Fatal(err)
		}
		if e >= req.Alpha {
			failures++
		}
	}
	rate := float64(failures) / runs
	if rate > req.Beta {
		t.Fatalf("failure rate %v exceeds beta %v", rate, req.Beta)
	}
}

func TestLMICQRun(t *testing.T) {
	f := newFixture(t, []int{500, 5, 500, 5}, 10)
	req := accuracy.Requirement{Alpha: 50, Beta: 0.01}
	_, tr := f.histogramQuery(t, 4, 10, req)
	q, err := query.NewICQ(tr.Predicates(), 250, req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := translateAndRun(LM{}, q, tr, f.table, noise.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true, false}
	for i := range want {
		if res.Selected[i] != want[i] {
			t.Fatalf("selection %v, want %v", res.Selected, want)
		}
	}
	if res.Counts != nil {
		t.Fatal("ICQ must not reveal counts")
	}
}

func TestLTMTranslateAndRun(t *testing.T) {
	f := newFixture(t, []int{500, 400, 300, 5, 5, 5, 5, 5, 5, 5}, 10)
	req := accuracy.Requirement{Alpha: 50, Beta: 0.01}
	_, tr := f.histogramQuery(t, 10, 10, req)
	q, err := query.NewTCQ(tr.Predicates(), 3, req)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := LTM{}.Translate(q, tr)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 3 * math.Log(10/(2*0.01)) / 50
	if math.Abs(cost.Upper-want) > 1e-9 {
		t.Fatalf("LTM eps = %v, want %v", cost.Upper, want)
	}
	res, err := translateAndRun(LTM{}, q, tr, f.table, noise.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	var selected int
	for _, s := range res.Selected {
		if s {
			selected++
		}
	}
	if selected != 3 {
		t.Fatalf("LTM selected %d bins, want 3", selected)
	}
	// With well-separated counts the top 3 must be bins 0..2.
	if !res.Selected[0] || !res.Selected[1] || !res.Selected[2] {
		t.Fatalf("LTM missed a clear winner: %v", res.Selected)
	}
}

// LTM's cost is independent of workload sensitivity; LM's is not. This is
// the crossover the paper exploits for QT2/QT4 (Table 2).
func TestLTMIndependentOfSensitivity(t *testing.T) {
	f := newFixture(t, []int{10, 10, 10, 10, 10, 10, 10, 10}, 10)
	req := accuracy.Requirement{Alpha: 5, Beta: 0.05}
	prefix, err := workload.Prefix1D("v", 0, 80, 10)
	if err != nil {
		t.Fatal(err)
	}
	trPrefix, err := workload.Transform(f.schema, prefix, workload.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if trPrefix.Sensitivity() != 8 {
		t.Fatalf("prefix sensitivity = %v", trPrefix.Sensitivity())
	}
	q, err := query.NewTCQ(prefix, 2, req)
	if err != nil {
		t.Fatal(err)
	}
	ltm, err := LTM{}.Translate(q, trPrefix)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := LM{}.Translate(q, trPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if ltm.Upper >= lm.Upper {
		t.Fatalf("on a high-sensitivity workload LTM (%v) must beat LM (%v)", ltm.Upper, lm.Upper)
	}
}

func TestNotApplicableErrors(t *testing.T) {
	f := newFixture(t, []int{1, 2}, 10)
	req := accuracy.Requirement{Alpha: 1, Beta: 0.1}
	q, tr := f.histogramQuery(t, 2, 10, req)

	if _, err := (LTM{}).Translate(q, tr); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("LTM on WCQ: %v", err)
	}
	if _, err := (MPM{}).Translate(q, tr); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("MPM on WCQ: %v", err)
	}
	qt, err := query.NewTCQ(q.Predicates, 1, req)
	if err != nil {
		t.Fatal(err)
	}
	sm := NewSM(nil, 200)
	if _, err := sm.Translate(qt, tr); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("SM on TCQ: %v", err)
	}
}

func TestSMTranslateBeatsLMOnPrefix(t *testing.T) {
	// The headline win: on a cumulative histogram (sensitivity L), the H2
	// strategy mechanism must be far cheaper than the Laplace baseline.
	f := newFixture(t, make([]int, 64), 10)
	req := accuracy.Requirement{Alpha: 50, Beta: 0.05}
	prefix, err := workload.Prefix1D("v", 0, 640, 10)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Transform(f.schema, prefix, workload.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.NewWCQ(prefix, req)
	if err != nil {
		t.Fatal(err)
	}
	sm := NewSM(strategy.H2, 2000)
	smc, err := sm.Translate(q, tr)
	if err != nil {
		t.Fatal(err)
	}
	lmc, err := LM{}.Translate(q, tr)
	if err != nil {
		t.Fatal(err)
	}
	if smc.Upper >= lmc.Upper {
		t.Fatalf("SM (%v) must beat LM (%v) on a prefix workload", smc.Upper, lmc.Upper)
	}
}

func TestSMTranslateDeterministic(t *testing.T) {
	f := newFixture(t, make([]int, 16), 10)
	req := accuracy.Requirement{Alpha: 20, Beta: 0.05}
	q, tr := f.histogramQuery(t, 16, 10, req)
	sm := NewSM(strategy.H2, 1000)
	a, err := sm.Translate(q, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sm.Translate(q, tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.Upper != b.Upper {
		t.Fatalf("repeated translation differs: %v vs %v", a.Upper, b.Upper)
	}
}

// TestSMAccuracyGuarantee verifies the Monte-Carlo translation actually
// delivers (α, β)-WCQ accuracy on real runs.
func TestSMAccuracyGuarantee(t *testing.T) {
	f := newFixture(t, []int{30, 60, 90, 120, 150, 180, 210, 240}, 10)
	req := accuracy.Requirement{Alpha: 40, Beta: 0.1}
	q, tr := f.histogramQuery(t, 8, 10, req)
	truth := tr.TrueAnswers(f.table)
	sm := NewSM(strategy.H2, 3000)

	rng := noise.NewRand(31)
	const runs = 1000
	var failures int
	for i := 0; i < runs; i++ {
		res, err := translateAndRun(sm, q, tr, f.table, rng)
		if err != nil {
			t.Fatal(err)
		}
		e, err := accuracy.WCQError(truth, res.Counts)
		if err != nil {
			t.Fatal(err)
		}
		if e >= req.Alpha {
			failures++
		}
	}
	rate := float64(failures) / runs
	if rate > req.Beta {
		t.Fatalf("SM failure rate %v exceeds beta %v", rate, req.Beta)
	}
}

func TestSMICQCheaperThanWCQ(t *testing.T) {
	// One-sided accuracy halves the effective failure budget requirement,
	// so ICQ-SM is never more expensive than WCQ-SM at the same (α, β).
	f := newFixture(t, make([]int, 16), 10)
	req := accuracy.Requirement{Alpha: 20, Beta: 0.01}
	q, tr := f.histogramQuery(t, 16, 10, req)
	qi, err := query.NewICQ(q.Predicates, 100, req)
	if err != nil {
		t.Fatal(err)
	}
	sm := NewSM(strategy.H2, 2000)
	cw, err := sm.Translate(q, tr)
	if err != nil {
		t.Fatal(err)
	}
	ci, err := sm.Translate(qi, tr)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Upper > cw.Upper {
		t.Fatalf("ICQ-SM (%v) must not exceed WCQ-SM (%v)", ci.Upper, cw.Upper)
	}
}

func TestSMNotApplicableWhenImplicit(t *testing.T) {
	// Build an implicit transformation (predicates over many attributes).
	attrs := make([]dataset.Attribute, 30)
	preds := make([]dataset.Predicate, 30)
	names := make([]string, 30)
	for i := range attrs {
		names[i] = string(rune('a'+i%26)) + string(rune('a'+i/26))
		attrs[i] = dataset.Attribute{Name: names[i], Kind: dataset.Continuous, Min: 0, Max: 1}
		preds[i] = dataset.NumCmp{Attr: names[i], Op: dataset.Gt, C: 0.5}
	}
	s := dataset.MustSchema(attrs...)
	tr, err := workload.Transform(s, preds, workload.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Materialized() {
		t.Fatal("fixture should be implicit")
	}
	q, err := query.NewWCQ(preds, accuracy.Requirement{Alpha: 10, Beta: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	sm := NewSM(nil, 100)
	if sm.Applicable(q, tr) {
		t.Fatal("SM must not be applicable to implicit workloads")
	}
	// LM still applies.
	if !(LM{}).Applicable(q, tr) {
		t.Fatal("LM must remain applicable")
	}
}

func TestMPMTranslateBounds(t *testing.T) {
	f := newFixture(t, []int{100, 200}, 10)
	req := accuracy.Requirement{Alpha: 10, Beta: 0.05}
	_, tr := f.histogramQuery(t, 2, 10, req)
	q, err := query.NewICQ(tr.Predicates(), 150, req)
	if err != nil {
		t.Fatal(err)
	}
	m := MPM{Pokes: 10}
	cost, err := m.Translate(q, tr)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 * math.Log(10*2/(2*0.05)) / 10
	if math.Abs(cost.Upper-want) > 1e-9 {
		t.Fatalf("MPM upper = %v, want %v", cost.Upper, want)
	}
	if math.Abs(cost.Lower-want/10) > 1e-9 {
		t.Fatalf("MPM lower = %v, want %v", cost.Lower, want/10)
	}
}

// TestMPMDataDependence is the Example 5.4 phenomenon: counts far from the
// threshold let MPM stop after few pokes (low actual ε); counts hugging the
// threshold force many pokes (high actual ε).
func TestMPMDataDependence(t *testing.T) {
	req := accuracy.Requirement{Alpha: 10, Beta: 0.05}
	m := MPM{Pokes: 10}

	runMedian := func(counts []int, c float64) float64 {
		f := newFixture(t, counts, 10)
		_, tr := f.histogramQuery(t, len(counts), 10, req)
		q, err := query.NewICQ(tr.Predicates(), c, req)
		if err != nil {
			t.Fatal(err)
		}
		rng := noise.NewRand(77)
		var epss []float64
		for i := 0; i < 31; i++ {
			res, err := translateAndRun(m, q, tr, f.table, rng)
			if err != nil {
				t.Fatal(err)
			}
			epss = append(epss, res.Epsilon)
		}
		return median(epss)
	}

	farEps := runMedian([]int{1000, 0}, 100)  // counts 900 and -100 away
	nearEps := runMedian([]int{105, 95}, 100) // counts 5 away

	if farEps >= nearEps {
		t.Fatalf("far-from-threshold eps %v must be below near-threshold eps %v", farEps, nearEps)
	}
}

// TestExample54 reproduces the paper's Example 5.4 quantitatively: for
// qϕ,>c with c=100, α=10, β=0.1/2... the paper uses β such that LM costs
// ln(1/(2β))/α = 2.23; with count 1000 MPM should stop at its first poke,
// spending about one tenth of its upper bound.
func TestExample54(t *testing.T) {
	// One bin with count 1000, threshold 100.
	f := newFixture(t, []int{1000}, 10)
	req := accuracy.Requirement{Alpha: 10, Beta: 0.1 / 2} // ln(1/(2β))/α ≈ 0.23... scaled below
	_, tr := f.histogramQuery(t, 1, 10, req)
	q, err := query.NewICQ(tr.Predicates(), 100, req)
	if err != nil {
		t.Fatal(err)
	}
	m := MPM{Pokes: 10}
	cost, err := m.Translate(q, tr)
	if err != nil {
		t.Fatal(err)
	}
	rng := noise.NewRand(3)
	firstPokeEps := cost.Upper / 10
	var stoppedEarly int
	const runs = 50
	for i := 0; i < runs; i++ {
		res, err := translateAndRun(m, q, tr, f.table, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Epsilon <= firstPokeEps+1e-12 {
			stoppedEarly++
		}
	}
	if stoppedEarly < runs*9/10 {
		t.Fatalf("with count 10x the threshold MPM should almost always stop at poke 1; stopped early %d/%d", stoppedEarly, runs)
	}
}

// TestMPMAccuracyGuarantee: MPM must satisfy (α, β)-ICQ accuracy.
func TestMPMAccuracyGuarantee(t *testing.T) {
	f := newFixture(t, []int{300, 80, 150, 20}, 10)
	req := accuracy.Requirement{Alpha: 30, Beta: 0.1}
	_, tr := f.histogramQuery(t, 4, 10, req)
	c := 100.0
	q, err := query.NewICQ(tr.Predicates(), c, req)
	if err != nil {
		t.Fatal(err)
	}
	truth := tr.TrueAnswers(f.table)
	m := MPM{}
	rng := noise.NewRand(55)
	const runs = 500
	var failures int
	for i := 0; i < runs; i++ {
		res, err := translateAndRun(m, q, tr, f.table, rng)
		if err != nil {
			t.Fatal(err)
		}
		e, err := accuracy.ICQError(truth, res.Selected, c)
		if err != nil {
			t.Fatal(err)
		}
		if e > req.Alpha {
			failures++
		}
	}
	if rate := float64(failures) / runs; rate > req.Beta {
		t.Fatalf("MPM failure rate %v exceeds beta %v", rate, req.Beta)
	}
}

func TestMPMEpsilonNeverExceedsUpper(t *testing.T) {
	f := newFixture(t, []int{105, 95, 100, 110}, 10)
	req := accuracy.Requirement{Alpha: 5, Beta: 0.05}
	_, tr := f.histogramQuery(t, 4, 10, req)
	q, err := query.NewICQ(tr.Predicates(), 100, req)
	if err != nil {
		t.Fatal(err)
	}
	m := MPM{}
	cost, err := m.Translate(q, tr)
	if err != nil {
		t.Fatal(err)
	}
	rng := noise.NewRand(66)
	for i := 0; i < 100; i++ {
		res, err := translateAndRun(m, q, tr, f.table, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Epsilon > cost.Upper+1e-12 {
			t.Fatalf("actual eps %v exceeds upper %v", res.Epsilon, cost.Upper)
		}
		if res.Epsilon < cost.Lower-1e-12 {
			t.Fatalf("actual eps %v below lower %v", res.Epsilon, cost.Lower)
		}
	}
}

func TestResultSelectedPredicates(t *testing.T) {
	preds := []dataset.Predicate{
		dataset.NumCmp{Attr: "v", Op: dataset.Gt, C: 1},
		dataset.NumCmp{Attr: "v", Op: dataset.Gt, C: 2},
	}
	r := &Result{Selected: []bool{false, true}}
	sel := r.SelectedPredicates(preds)
	if len(sel) != 1 || sel[0].String() != "v>2" {
		t.Fatalf("selected = %v", sel)
	}
}

func median(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}

// Zero-sensitivity workloads (no domain tuple satisfies any predicate) are
// data independent: exact answers, zero privacy charge. The ER strategies
// pose such queries (e.g. O ∧ ¬p with p already in O).
func TestZeroSensitivityIsFree(t *testing.T) {
	f := newFixture(t, []int{100, 200}, 10)
	req := accuracy.Requirement{Alpha: 10, Beta: 0.05}
	// v > 5 AND v < 3 is unsatisfiable.
	preds := []dataset.Predicate{dataset.And{
		dataset.NumCmp{Attr: "v", Op: dataset.Gt, C: 5},
		dataset.NumCmp{Attr: "v", Op: dataset.Lt, C: 3},
	}}
	tr, err := workload.Transform(f.schema, preds, workload.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Sensitivity() != 0 {
		t.Fatalf("sensitivity = %v, want 0", tr.Sensitivity())
	}
	rng := noise.NewRand(1)

	qw, err := query.NewWCQ(preds, req)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := LM{}.Translate(qw, tr)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Upper != 0 {
		t.Fatalf("LM cost = %v, want 0", cost.Upper)
	}
	res, err := translateAndRun(LM{}, qw, tr, f.table, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epsilon != 0 || res.Counts[0] != 0 {
		t.Fatalf("LM free run: eps=%v counts=%v", res.Epsilon, res.Counts)
	}

	qi, err := query.NewICQ(preds, 50, req)
	if err != nil {
		t.Fatal(err)
	}
	mres, err := translateAndRun(MPM{}, qi, tr, f.table, rng)
	if err != nil {
		t.Fatal(err)
	}
	if mres.Epsilon != 0 || mres.Selected[0] {
		t.Fatalf("MPM free run: eps=%v sel=%v", mres.Epsilon, mres.Selected)
	}

	sm := NewSM(nil, 200)
	if sm.Applicable(qw, tr) {
		sres, err := translateAndRun(sm, qw, tr, f.table, rng)
		if err != nil {
			t.Fatal(err)
		}
		if sres.Epsilon != 0 || sres.Counts[0] != 0 {
			t.Fatalf("SM free run: eps=%v counts=%v", sres.Epsilon, sres.Counts)
		}
	}
}
