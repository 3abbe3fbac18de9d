package engine

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/noise"
)

// TestTwoPhaseMatchesAsk: driving Prepare/Execute/Commit by hand must be
// indistinguishable from Ask with the same seed.
func TestTwoPhaseMatchesAsk(t *testing.T) {
	d := testTable(t, []int{100, 200, 300, 400})
	q := histQuery(t, 4, accuracy.Requirement{Alpha: 40, Beta: 0.05})

	direct := newEngine(t, d, 10, Optimistic)
	ansA, err := direct.Ask(q)
	if err != nil {
		t.Fatal(err)
	}

	phased := newEngine(t, d, 10, Optimistic)
	plan, immediate, err := phased.Prepare(context.Background(), q)
	if err != nil || immediate != nil {
		t.Fatalf("Prepare: plan=%v immediate=%v err=%v", plan, immediate, err)
	}
	if plan.Cost.Upper <= 0 || plan.Mechanism == nil {
		t.Fatalf("plan incomplete: %+v", plan)
	}
	ansB, err := phased.Commit(context.Background(), plan, phased.Execute(context.Background(), plan))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ansA, ansB) {
		t.Fatalf("answers differ:\nAsk:      %+v\ntwo-phase: %+v", ansA, ansB)
	}
	if !reflect.DeepEqual(transcriptOf(t, direct), transcriptOf(t, phased)) {
		t.Fatal("transcripts differ")
	}
}

// TestAbortReleasesReservation: an aborted plan must charge nothing, log
// nothing, and free its reserved budget for the next query.
func TestAbortReleasesReservation(t *testing.T) {
	d := testTable(t, []int{100, 200})
	e := newEngine(t, d, 0.25, Optimistic)
	q := histQuery(t, 2, accuracy.Requirement{Alpha: 20, Beta: 0.05})

	plan, _, err := e.Prepare(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cost.Upper <= e.Budget()/2 {
		t.Fatalf("plan upper %v too cheap to make the reservation observable under budget %v", plan.Cost.Upper, e.Budget())
	}
	// While the plan is in flight its reservation blocks a second query
	// of the same cost.
	if _, _, err := e.Prepare(context.Background(), q); !errors.Is(err, ErrDenied) {
		t.Fatalf("concurrent Prepare: got %v, want ErrDenied", err)
	}
	e.Abort(plan)
	if got := e.Spent(); got != 0 {
		t.Fatalf("abort charged %v", got)
	}
	// ErrDenied above logged a denial entry; nothing else may be there.
	if n := e.TranscriptLen(); n != 1 {
		t.Fatalf("transcript has %d entries, want only the denial", n)
	}
	if _, err := e.Ask(q); err != nil {
		t.Fatalf("Ask after Abort: %v", err)
	}
}

// TestChargeExternalSeesReservations: an external charge racing a
// prepared plan must count the plan's reservation, or the two could
// jointly overrun B.
func TestChargeExternalSeesReservations(t *testing.T) {
	d := testTable(t, []int{100, 200})
	e := newEngine(t, d, 0.25, Optimistic)
	q := histQuery(t, 2, accuracy.Requirement{Alpha: 20, Beta: 0.05})
	plan, _, err := e.Prepare(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// The plan reserved most of B; an external charge of the same size
	// no longer fits and must be denied, not admitted against B-spent.
	if err := e.ChargeExternal(plan.Cost.Upper, plan.Cost.Upper, "sum"); !errors.Is(err, ErrDenied) {
		t.Fatalf("external charge during in-flight plan: got %v, want ErrDenied", err)
	}
	if _, err := e.Commit(context.Background(), plan, e.Execute(context.Background(), plan)); err != nil {
		t.Fatal(err)
	}
	if spent, err := e.Validate(); err != nil || spent > e.Budget()+1e-9 {
		t.Fatalf("invariant broken: spent=%v err=%v", spent, err)
	}
	// With the plan settled the reservation is gone; a small external
	// charge fits again.
	if err := e.ChargeExternal(0.01, 0.01, "sum"); err != nil {
		t.Fatalf("external charge after commit: %v", err)
	}
}

// TestDoubleCommitRejected: a plan finishes exactly once.
func TestDoubleCommitRejected(t *testing.T) {
	d := testTable(t, []int{50})
	e := newEngine(t, d, 10, Optimistic)
	q := histQuery(t, 1, accuracy.Requirement{Alpha: 20, Beta: 0.05})
	plan, _, err := e.Prepare(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	out := e.Execute(context.Background(), plan)
	if _, err := e.Commit(context.Background(), plan, out); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Commit(context.Background(), plan, out); err == nil {
		t.Fatal("second Commit must fail")
	}
	if spent, err := e.Validate(); err != nil || spent > e.Budget() {
		t.Fatalf("transcript broken after double commit attempt: spent=%v err=%v", spent, err)
	}
}

// TestCommitRejectsForeignPlan: plans are bound to their issuing engine.
func TestCommitRejectsForeignPlan(t *testing.T) {
	d := testTable(t, []int{50})
	e1 := newEngine(t, d, 10, Optimistic)
	e2 := newEngine(t, d, 10, Optimistic)
	q := histQuery(t, 1, accuracy.Requirement{Alpha: 20, Beta: 0.05})
	plan, _, err := e1.Prepare(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Commit(context.Background(), plan, e1.Execute(context.Background(), plan)); err == nil {
		t.Fatal("foreign Commit must fail")
	}
	if _, err := e1.Commit(context.Background(), plan, e1.Execute(context.Background(), plan)); err != nil {
		t.Fatalf("rightful Commit: %v", err)
	}
}

// TestSealWaitsForInflightPlans: Seal must not return while a prepared
// plan is unfinished, so a session close can never race a commit.
func TestSealWaitsForInflightPlans(t *testing.T) {
	d := testTable(t, []int{100})
	e := newEngine(t, d, 10, Optimistic)
	q := histQuery(t, 1, accuracy.Requirement{Alpha: 20, Beta: 0.05})
	plan, _, err := e.Prepare(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	sealed := make(chan struct{})
	go func() {
		e.Seal()
		close(sealed)
	}()
	select {
	case <-sealed:
		t.Fatal("Seal returned while a plan was in flight")
	default:
	}
	if _, err := e.Commit(context.Background(), plan, e.Execute(context.Background(), plan)); err != nil {
		t.Fatal(err)
	}
	<-sealed
	// After Seal, the committed entry is in the transcript and new
	// interactions fail.
	if n := e.TranscriptLen(); n != 1 {
		t.Fatalf("transcript has %d entries, want 1", n)
	}
	if _, _, err := e.Prepare(context.Background(), q); !errors.Is(err, ErrSealed) {
		t.Fatalf("Prepare after Seal: got %v, want ErrSealed", err)
	}
}

// TestConcurrentTwoPhaseKeepsInvariant: many goroutines driving the
// phased API on one engine (run under -race) must leave a transcript
// that validates and never overruns the budget, in any interleaving.
func TestConcurrentTwoPhaseKeepsInvariant(t *testing.T) {
	d := testTable(t, []int{100, 200, 300})
	e, err := New(d, Config{Budget: 5, Mode: Optimistic, Rng: noise.NewRand(3)})
	if err != nil {
		t.Fatal(err)
	}
	q := histQuery(t, 3, accuracy.Requirement{Alpha: 60, Beta: 0.1})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plan, ans, err := e.Prepare(context.Background(), q)
			if plan == nil {
				if err != nil && !errors.Is(err, ErrDenied) {
					t.Errorf("Prepare: %v", err)
				}
				_ = ans
				return
			}
			if _, err := e.Commit(context.Background(), plan, e.Execute(context.Background(), plan)); err != nil {
				t.Errorf("Commit: %v", err)
			}
		}()
	}
	wg.Wait()
	spent, err := e.Validate()
	if err != nil {
		t.Fatalf("transcript invalid: %v", err)
	}
	if spent > e.Budget()+1e-9 || math.IsNaN(spent) {
		t.Fatalf("spent %v beyond budget %v", spent, e.Budget())
	}
}
