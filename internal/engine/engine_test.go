package engine

import (
	"errors"
	"math"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/dataset"
	"repro/internal/mechanism"
	"repro/internal/noise"
	"repro/internal/query"
	"repro/internal/strategy"
	"repro/internal/workload"
)

func testTable(t *testing.T, counts []int) *dataset.Table {
	t.Helper()
	s := dataset.MustSchema(
		dataset.Attribute{Name: "v", Kind: dataset.Continuous, Min: 0, Max: 10 * float64(len(counts))},
	)
	tab := dataset.NewTable(s)
	for bin, n := range counts {
		for i := 0; i < n; i++ {
			tab.MustAppend(dataset.Tuple{dataset.Num(10*float64(bin) + 5)})
		}
	}
	return tab
}

func histQuery(t *testing.T, bins int, req accuracy.Requirement) *query.Query {
	t.Helper()
	preds, err := workload.Histogram1D("v", 0, 10*float64(bins), 10)
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.NewWCQ(preds, req)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// transcriptOf returns e's full transcript; an engine with no History
// reads from memory and cannot fail.
func transcriptOf(t testing.TB, e *Engine) []Entry {
	t.Helper()
	entries, err := e.Transcript()
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

func newEngine(t *testing.T, d *dataset.Table, budget float64, mode Mode) *Engine {
	t.Helper()
	e, err := New(d, Config{
		Budget: budget,
		Mode:   mode,
		Rng:    noise.NewRand(11),
		Mechanisms: []mechanism.Mechanism{
			mechanism.LM{},
			mechanism.NewSM(strategy.H2, 500),
			mechanism.MPM{},
			mechanism.LTM{},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{Budget: 1}); err == nil {
		t.Fatal("nil table must error")
	}
	if _, err := New(testTable(t, []int{1}), Config{Budget: 0}); err == nil {
		t.Fatal("zero budget must error")
	}
	if _, err := New(testTable(t, []int{1}), Config{Budget: -1}); err == nil {
		t.Fatal("negative budget must error")
	}
}

func TestAskAnswersWCQ(t *testing.T) {
	d := testTable(t, []int{100, 200, 300, 400})
	e := newEngine(t, d, 10, Optimistic)
	q := histQuery(t, 4, accuracy.Requirement{Alpha: 40, Beta: 0.05})
	ans, err := e.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Counts) != 4 {
		t.Fatalf("counts = %v", ans.Counts)
	}
	if ans.Epsilon <= 0 {
		t.Fatal("epsilon must be positive")
	}
	if e.Spent() != ans.Epsilon {
		t.Fatalf("spent %v != answer eps %v", e.Spent(), ans.Epsilon)
	}
	if ans.Mechanism == "" {
		t.Fatal("mechanism name missing")
	}
}

func TestBudgetAccountingAcrossQueries(t *testing.T) {
	d := testTable(t, []int{100, 200})
	e := newEngine(t, d, 5, Optimistic)
	q := histQuery(t, 2, accuracy.Requirement{Alpha: 30, Beta: 0.05})
	var total float64
	for i := 0; i < 3; i++ {
		ans, err := e.Ask(q)
		if err != nil {
			t.Fatal(err)
		}
		total += ans.Epsilon
	}
	if math.Abs(e.Spent()-total) > 1e-12 {
		t.Fatalf("spent %v, sum of answers %v", e.Spent(), total)
	}
	if math.Abs(e.Remaining()-(5-total)) > 1e-12 {
		t.Fatalf("remaining %v", e.Remaining())
	}
}

func TestQueryDenied(t *testing.T) {
	d := testTable(t, []int{100, 200})
	e := newEngine(t, d, 0.0001, Optimistic) // tiny budget
	q := histQuery(t, 2, accuracy.Requirement{Alpha: 5, Beta: 0.001})
	_, err := e.Ask(q)
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("want ErrDenied, got %v", err)
	}
	if e.Spent() != 0 {
		t.Fatal("denial must not consume budget")
	}
	tr := transcriptOf(t, e)
	if len(tr) != 1 || !tr[0].Denied {
		t.Fatalf("transcript = %+v", tr)
	}
}

// TestBudgetNeverExceeded is the §6 validity invariant: issue queries until
// denial; the cumulative actual loss must never exceed B, and every
// answered query's worst case must have fit at the time.
func TestBudgetNeverExceeded(t *testing.T) {
	d := testTable(t, []int{100, 200, 300})
	budget := 2.0
	e := newEngine(t, d, budget, Optimistic)
	q := histQuery(t, 3, accuracy.Requirement{Alpha: 20, Beta: 0.01})
	for i := 0; i < 100; i++ {
		_, err := e.Ask(q)
		if errors.Is(err, ErrDenied) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if e.Spent() > budget+1e-9 {
			t.Fatalf("budget exceeded: %v > %v", e.Spent(), budget)
		}
	}
	// After denial, asking again still denies and still spends nothing extra.
	before := e.Spent()
	if _, err := e.Ask(q); !errors.Is(err, ErrDenied) {
		t.Fatal("expected continued denial")
	}
	if e.Spent() != before {
		t.Fatal("denied query consumed budget")
	}
}

func TestEngineChoosesCheapestMechanism(t *testing.T) {
	// Prefix workload: SM-h2 must beat LM, and the engine must pick it.
	d := testTable(t, make([]int, 32))
	e := newEngine(t, d, 100, Pessimistic)
	preds, err := workload.Prefix1D("v", 0, 320, 10)
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.NewWCQ(preds, accuracy.Requirement{Alpha: 30, Beta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Mechanism != "SM-h2" {
		t.Fatalf("engine picked %s for a prefix workload, want SM-h2", ans.Mechanism)
	}
}

func TestEngineChoosesLMForFlatHistogram(t *testing.T) {
	// Disjoint histogram with sensitivity 1: LM is cheaper than SM-h2.
	d := testTable(t, make([]int, 32))
	e := newEngine(t, d, 100, Pessimistic)
	q := histQuery(t, 32, accuracy.Requirement{Alpha: 30, Beta: 0.05})
	ans, err := e.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Mechanism != "LM" {
		t.Fatalf("engine picked %s for a flat histogram, want LM", ans.Mechanism)
	}
}

func TestOptimisticPrefersMPMWorstCaseAllowing(t *testing.T) {
	// For ICQ, MPM's lower bound (εmax/m) undercuts LM's fixed cost, so
	// optimistic mode picks MPM while pessimistic mode picks LM.
	d := testTable(t, []int{1000, 0})
	reqr := accuracy.Requirement{Alpha: 10, Beta: 0.05}
	preds, err := workload.Histogram1D("v", 0, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.NewICQ(preds, 100, reqr)
	if err != nil {
		t.Fatal(err)
	}

	eOpt := newEngine(t, d, 100, Optimistic)
	ansOpt, err := eOpt.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	if ansOpt.Mechanism != "MPM" {
		t.Fatalf("optimistic picked %s, want MPM", ansOpt.Mechanism)
	}

	ePes := newEngine(t, d, 100, Pessimistic)
	ansPes, err := ePes.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	if ansPes.Mechanism == "MPM" {
		t.Fatalf("pessimistic picked MPM whose upper bound is largest")
	}
}

func TestActualLossBelowUpperSavesBudget(t *testing.T) {
	// MPM with counts far from the threshold stops early: the charge must
	// be below the reserved upper bound.
	d := testTable(t, []int{1000, 0})
	e := newEngine(t, d, 100, Optimistic)
	preds, err := workload.Histogram1D("v", 0, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.NewICQ(preds, 100, accuracy.Requirement{Alpha: 10, Beta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Epsilon >= ans.EpsilonUpper {
		t.Fatalf("expected early stop: actual %v, upper %v", ans.Epsilon, ans.EpsilonUpper)
	}
	if math.Abs(e.Spent()-ans.Epsilon) > 1e-12 {
		t.Fatal("engine must charge the actual loss, not the upper bound")
	}
}

func TestTCQUsesChepestOfLMAndLTM(t *testing.T) {
	d := testTable(t, []int{500, 400, 300, 200, 100, 50, 40, 30, 20, 10})
	e := newEngine(t, d, 1000, Pessimistic)
	preds, err := workload.Histogram1D("v", 0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.NewTCQ(preds, 3, accuracy.Requirement{Alpha: 50, Beta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	// Sensitivity 1, k=3: LM pays ln-union ~ ln(L/β)/α, LTM pays 2k·ln(L/2β)/α.
	// For these parameters LM is cheaper; verify the engine agrees with the
	// direct translation comparison.
	choices, err := e.Translations(q)
	if err != nil {
		t.Fatal(err)
	}
	bestName, bestEps := "", math.Inf(1)
	for _, c := range choices {
		if c.Cost.Upper < bestEps {
			bestEps, bestName = c.Cost.Upper, c.Mechanism.Name()
		}
	}
	if ans.Mechanism != bestName {
		t.Fatalf("engine picked %s, cheapest is %s", ans.Mechanism, bestName)
	}
}

func TestTranscriptRecordsEverything(t *testing.T) {
	d := testTable(t, []int{100, 200})
	e := newEngine(t, d, 10, Optimistic)
	q := histQuery(t, 2, accuracy.Requirement{Alpha: 30, Beta: 0.05})
	if _, err := e.Ask(q); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ask(q); err != nil {
		t.Fatal(err)
	}
	log := transcriptOf(t, e)
	if len(log) != 2 {
		t.Fatalf("transcript length %d", len(log))
	}
	var sum float64
	for _, entry := range log {
		if entry.Denied || entry.Answer == nil {
			t.Fatalf("unexpected denial in %+v", entry)
		}
		sum += entry.Epsilon
	}
	if math.Abs(sum-e.Spent()) > 1e-12 {
		t.Fatal("transcript epsilons must sum to spent budget")
	}
}

func TestAnswerSelectedPredicates(t *testing.T) {
	d := testTable(t, []int{500, 0})
	e := newEngine(t, d, 100, Pessimistic)
	preds, err := workload.Histogram1D("v", 0, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.NewICQ(preds, 100, accuracy.Requirement{Alpha: 20, Beta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	sel := ans.SelectedPredicates()
	if len(sel) != 1 || sel[0].String() != "v∈[0,10)" {
		t.Fatalf("selected = %v", sel)
	}
}

func TestInvalidQueryRejectedWithoutCharge(t *testing.T) {
	d := testTable(t, []int{1})
	e := newEngine(t, d, 10, Optimistic)
	q := &query.Query{Kind: query.WCQ, Req: accuracy.Requirement{Alpha: 1, Beta: 0.5}}
	if _, err := e.Ask(q); err == nil {
		t.Fatal("empty workload must error")
	}
	if e.Spent() != 0 {
		t.Fatal("invalid query must not charge")
	}
}

func TestModeString(t *testing.T) {
	if Optimistic.String() != "optimistic" || Pessimistic.String() != "pessimistic" {
		t.Fatal("mode strings")
	}
}

func TestTranslationsListsAllApplicable(t *testing.T) {
	d := testTable(t, []int{100, 200})
	e := newEngine(t, d, 10, Optimistic)
	preds, err := workload.Histogram1D("v", 0, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.NewICQ(preds, 100, accuracy.Requirement{Alpha: 20, Beta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	choices, err := e.Translations(q)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, c := range choices {
		names[c.Mechanism.Name()] = true
	}
	for _, want := range []string{"LM", "SM-h2", "MPM"} {
		if !names[want] {
			t.Errorf("missing %s in ICQ translations: %v", want, names)
		}
	}
	if names["LTM"] {
		t.Error("LTM must not apply to ICQ")
	}
}

func TestValidateTranscript(t *testing.T) {
	d := testTable(t, []int{100, 200})
	e := newEngine(t, d, 1.0, Optimistic)
	q := histQuery(t, 2, accuracy.Requirement{Alpha: 30, Beta: 0.05})
	for i := 0; i < 50; i++ {
		if _, err := e.Ask(q); err != nil {
			break
		}
	}
	spent, err := ValidateTranscript(transcriptOf(t, e), e.Budget())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(spent-e.Spent()) > 1e-12 {
		t.Fatalf("validated spent %v != engine spent %v", spent, e.Spent())
	}
	// Corrupted transcripts are rejected.
	bad := transcriptOf(t, e)
	if len(bad) > 0 {
		bad[0].Epsilon = -1
		if _, err := ValidateTranscript(bad, e.Budget()); err == nil {
			t.Fatal("negative epsilon must fail validation")
		}
	}
	forged := []Entry{{Denied: true, Epsilon: 0.5}}
	if _, err := ValidateTranscript(forged, 1); err == nil {
		t.Fatal("charging a denial must fail validation")
	}
	over := []Entry{{Epsilon: 2, Answer: &Answer{Epsilon: 2, EpsilonUpper: 2}}}
	if _, err := ValidateTranscript(over, 1); err == nil {
		t.Fatal("over-budget transcript must fail validation")
	}
}
