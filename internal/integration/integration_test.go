// Package integration exercises end-to-end flows across module boundaries:
// parsed queries through the engine, CSV round trips into exploration
// sessions, adaptive sequences with budget exhaustion, and the §6 validity
// invariants under adversarial query streams.
package integration

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/noise"
	"repro/internal/query"
	"repro/internal/workload"
)

func TestParsedQueryThroughEngine(t *testing.T) {
	table := datagen.Adult(5000, 1)
	eng, err := engine.New(table, engine.Config{
		Budget: 5, Mode: engine.Optimistic, Rng: noise.NewRand(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.Parse(`BIN D ON COUNT(*) WHERE W = {
		"capital gain" BETWEEN 0 AND 100,
		"capital gain" BETWEEN 100 AND 5000,
		"capital gain" >= 5000
	} ERROR 250 CONFIDENCE 0.999;`)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Counts) != 3 {
		t.Fatalf("counts %v", ans.Counts)
	}
	// ~92% of rows have zero gain: first bin must dominate.
	if ans.Counts[0] < ans.Counts[1] || ans.Counts[0] < ans.Counts[2] {
		t.Fatalf("low-gain bin should dominate: %v", ans.Counts)
	}
}

func TestParsedICQAndTCQThroughEngine(t *testing.T) {
	table := datagen.Adult(5000, 2)
	eng, err := engine.New(table, engine.Config{
		Budget: 10, Mode: engine.Optimistic, Rng: noise.NewRand(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	icq, err := query.Parse(`BIN D ON COUNT(*) WHERE W = {
		sex = 'Male', sex = 'Female'
	} HAVING COUNT(*) > 2500 ERROR 250 CONFIDENCE 0.999;`)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Ask(icq)
	if err != nil {
		t.Fatal(err)
	}
	// ~67% male: only the Male bin exceeds half the table.
	if !ans.Selected[0] || ans.Selected[1] {
		t.Fatalf("ICQ selection %v", ans.Selected)
	}

	tcq, err := query.Parse(`BIN D ON COUNT(*) WHERE W = {
		workclass = 'Private', workclass = 'Never-worked', workclass = 'State-gov'
	} ORDER BY COUNT(*) LIMIT 1 ERROR 250 CONFIDENCE 0.999;`)
	if err != nil {
		t.Fatal(err)
	}
	ans, err = eng.Ask(tcq)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Selected[0] {
		t.Fatalf("Private must be the top workclass: %v", ans.Selected)
	}
}

func TestCSVRoundTripIntoEngine(t *testing.T) {
	orig := datagen.NYTaxi(2000, 3)
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := dataset.ReadCSV(&buf, orig.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != orig.Size() {
		t.Fatalf("round trip lost rows: %d vs %d", back.Size(), orig.Size())
	}
	eng, err := engine.New(back, engine.Config{Budget: 1, Rng: noise.NewRand(3)})
	if err != nil {
		t.Fatal(err)
	}
	bins, err := workload.Histogram1D("trip distance", 0, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.NewWCQ(bins, accuracy.Requirement{Alpha: 100, Beta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Ask(q); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveSequenceInvariants drives a randomized adaptive analyst
// against the engine and checks the §6 validity invariants on the final
// transcript: Σ actual ε ≤ B, every answer's reserved worst case also fit,
// and denials charge nothing.
func TestAdaptiveSequenceInvariants(t *testing.T) {
	table := datagen.Adult(4000, 4)
	budget := 1.5
	eng, err := engine.New(table, engine.Config{
		Budget: budget, Mode: engine.Optimistic, Rng: noise.NewRand(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var asked, denied int
	for i := 0; i < 120; i++ {
		q := randomQuery(t, rng, table.Size())
		ans, err := eng.Ask(q)
		switch {
		case errors.Is(err, engine.ErrDenied):
			denied++
			continue
		case err != nil:
			t.Fatal(err)
		}
		asked++
		if ans.Epsilon > ans.EpsilonUpper+1e-9 {
			t.Fatalf("actual %v above reserved %v", ans.Epsilon, ans.EpsilonUpper)
		}
		if eng.Spent() > budget+1e-9 {
			t.Fatalf("budget blown at query %d: %v", i, eng.Spent())
		}
	}
	var sum float64
	for e, err := range eng.Entries(0) {
		if err != nil {
			t.Fatal(err)
		}
		if e.Denied && e.Epsilon != 0 {
			t.Fatal("denied entries must not charge")
		}
		sum += e.Epsilon
	}
	if math.Abs(sum-eng.Spent()) > 1e-9 {
		t.Fatalf("transcript sum %v != spent %v", sum, eng.Spent())
	}
	if asked == 0 {
		t.Fatal("no queries answered; fixture too tight")
	}
	if denied == 0 {
		t.Fatal("budget never exhausted; fixture too loose")
	}
	t.Logf("answered %d, denied %d, spent %.4f of %.1f", asked, denied, eng.Spent(), budget)
}

// randomQuery builds a random valid query over the Adult schema.
func randomQuery(t *testing.T, rng *rand.Rand, size int) *query.Query {
	t.Helper()
	alphaFrac := []float64{0.04, 0.08, 0.16, 0.32}[rng.Intn(4)]
	req := accuracy.Requirement{Alpha: alphaFrac * float64(size), Beta: 0.001}
	var preds []dataset.Predicate
	switch rng.Intn(3) {
	case 0:
		var err error
		preds, err = workload.Histogram1D("age", 0, 100, 10)
		if err != nil {
			t.Fatal(err)
		}
	case 1:
		var err error
		preds, err = workload.Prefix1D("capital gain", 0, 5000, 500)
		if err != nil {
			t.Fatal(err)
		}
	default:
		preds = workload.CategoryPredicates("workclass", datagen.AdultWorkclasses)
	}
	var q *query.Query
	var err error
	switch rng.Intn(3) {
	case 0:
		q, err = query.NewWCQ(preds, req)
	case 1:
		q, err = query.NewICQ(preds, float64(rng.Intn(size)), req)
	default:
		q, err = query.NewTCQ(preds, 1+rng.Intn(3), req)
	}
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestAccuracyContractAcrossEngine verifies the engine-level accuracy
// promise end to end: across repeated asks of a WCQ, the fraction of runs
// whose max error exceeds α stays at or below β (with slack for Monte-Carlo
// variation).
func TestAccuracyContractAcrossEngine(t *testing.T) {
	table := datagen.Adult(4000, 5)
	bins, err := workload.Histogram1D("age", 0, 100, 20)
	if err != nil {
		t.Fatal(err)
	}
	req := accuracy.Requirement{Alpha: 0.04 * 4000, Beta: 0.05}
	q, err := query.NewWCQ(bins, req)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Transform(table.Schema(), bins, workload.Options{})
	if err != nil {
		t.Fatal(err)
	}
	truth := tr.TrueAnswers(table)
	eng, err := engine.New(table, engine.Config{
		Budget: 1e9, Mode: engine.Optimistic, Rng: noise.NewRand(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 400
	var failures int
	for i := 0; i < runs; i++ {
		ans, err := eng.Ask(q)
		if err != nil {
			t.Fatal(err)
		}
		e, err := accuracy.WCQError(truth, ans.Counts)
		if err != nil {
			t.Fatal(err)
		}
		if e >= req.Alpha {
			failures++
		}
	}
	if rate := float64(failures) / runs; rate > req.Beta {
		t.Fatalf("engine-level failure rate %v exceeds beta %v", rate, req.Beta)
	}
}

// TestConcurrentAsksAreSafe runs parallel analysts against one engine and
// checks the budget invariant still holds (the engine serializes charging).
func TestConcurrentAsksAreSafe(t *testing.T) {
	table := datagen.Adult(2000, 6)
	budget := 0.8
	eng, err := engine.New(table, engine.Config{
		Budget: budget, Mode: engine.Optimistic, Rng: noise.NewRand(6),
	})
	if err != nil {
		t.Fatal(err)
	}
	bins, err := workload.Histogram1D("age", 0, 100, 25)
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.NewWCQ(bins, accuracy.Requirement{Alpha: 0.08 * 2000, Beta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 20; i++ {
				if _, err := eng.Ask(q); err != nil && !errors.Is(err, engine.ErrDenied) {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if eng.Spent() > budget+1e-9 {
		t.Fatalf("concurrent budget blown: %v > %v", eng.Spent(), budget)
	}
}

// TestDatasetScaleInvariance pins the claim justifying the NYTaxi size
// substitution (datagen.NYTaxiSize): the privacy cost at accuracy α = frac·|D| depends on
// |D| only through frac, so halving the table halves nothing.
func TestDatasetScaleInvariance(t *testing.T) {
	costAt := func(rows int) float64 {
		table := datagen.NYTaxi(rows, 7)
		bins, err := workload.Histogram1D("trip distance", 0, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		q, err := query.NewWCQ(bins, accuracy.Requirement{Alpha: 0.08 * float64(rows), Beta: 0.001})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := engine.New(table, engine.Config{Budget: 1e9, Rng: noise.NewRand(7)})
		if err != nil {
			t.Fatal(err)
		}
		ans, err := eng.Ask(q)
		if err != nil {
			t.Fatal(err)
		}
		return ans.Epsilon * float64(rows)
	}
	a, b := costAt(5000), costAt(20000)
	if math.Abs(a-b) > 1e-6*a {
		t.Fatalf("normalized cost must be size invariant: %v vs %v", a, b)
	}
}

func TestTranscriptReadableRendering(t *testing.T) {
	table := datagen.Adult(1000, 8)
	eng, err := engine.New(table, engine.Config{Budget: 2, Rng: noise.NewRand(8)})
	if err != nil {
		t.Fatal(err)
	}
	bins, err := workload.Histogram1D("age", 0, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.NewWCQ(bins, accuracy.Requirement{Alpha: 100, Beta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Ask(q); err != nil {
		t.Fatal(err)
	}
	for e, err := range eng.Entries(0) {
		if err != nil {
			t.Fatal(err)
		}
		s := fmt.Sprintf("%s -> eps %.4f", e.Query, e.Epsilon)
		if len(s) == 0 {
			t.Fatal("unrenderable transcript entry")
		}
	}
}
