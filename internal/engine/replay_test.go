package engine_test

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/query"
)

// mustTranscript is TranscriptSince for an engine whose reads cannot fail.
func mustTranscript(t testing.TB, e *engine.Engine, since int) []engine.Entry {
	t.Helper()
	entries, err := e.TranscriptSince(since)
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// seqOf feeds a slice of entries to engine.Replay.
func seqOf(entries []engine.Entry) iter.Seq2[engine.Entry, error] {
	return func(yield func(engine.Entry, error) bool) {
		for _, e := range entries {
			if !yield(e, nil) {
				return
			}
		}
	}
}

// replayTable builds a small deterministic table over (age, state).
func replayTable(t *testing.T, n int) *dataset.Table {
	t.Helper()
	s := dataset.MustSchema(
		dataset.Attribute{Name: "age", Kind: dataset.Continuous, Min: 0, Max: 100},
		dataset.Attribute{Name: "state", Kind: dataset.Categorical, Values: []string{"CA", "NY", "TX"}},
	)
	tb := dataset.NewTable(s)
	states := []string{"CA", "NY", "TX"}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		tb.Append(dataset.Tuple{dataset.Num(float64(rng.Intn(100))), dataset.Str(states[rng.Intn(3)])})
	}
	return tb
}

func replayWCQ(t *testing.T, alpha float64) *query.Query {
	t.Helper()
	q, err := query.NewWCQ(
		[]dataset.Predicate{
			dataset.Range{Attr: "age", Lo: 0, Hi: 50},
			dataset.Range{Attr: "age", Lo: 50, Hi: 100},
		},
		accuracy.Requirement{Alpha: alpha, Beta: 0.05},
	)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestEntryCodecRoundTrip(t *testing.T) {
	tb := replayTable(t, 300)
	eng, err := engine.New(tb, engine.Config{Budget: 5, Mode: engine.Optimistic, Rng: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	// Produce a varied transcript: answers, an ICQ, a TCQ, an external
	// charge, an external denial, and a budget denial.
	if _, err := eng.Ask(replayWCQ(t, 50)); err != nil {
		t.Fatal(err)
	}
	icq, err := query.NewICQ([]dataset.Predicate{
		dataset.StrEq{Attr: "state", Val: "CA"},
		dataset.StrEq{Attr: "state", Val: "NY"},
		dataset.StrEq{Attr: "state", Val: "TX"},
	}, 50, accuracy.Requirement{Alpha: 40, Beta: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Ask(icq); err != nil {
		t.Fatal(err)
	}
	tcq, err := query.NewTCQ([]dataset.Predicate{
		dataset.And{dataset.Range{Attr: "age", Lo: 0, Hi: 30}, dataset.StrEq{Attr: "state", Val: "CA"}},
		dataset.Not{P: dataset.IsNull{Attr: "age"}},
	}, 1, accuracy.Requirement{Alpha: 60, Beta: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Ask(tcq); err != nil {
		t.Fatal(err)
	}
	if err := eng.ChargeExternal(0.2, 0.15, "SUM(age)"); err != nil {
		t.Fatal(err)
	}
	if err := eng.ChargeExternal(1000, 0, "SUM(huge)"); !errors.Is(err, engine.ErrDenied) {
		t.Fatalf("external denial: %v", err)
	}
	if _, err := eng.Ask(replayWCQ(t, 0.001)); !errors.Is(err, engine.ErrDenied) {
		t.Fatalf("budget denial: %v", err)
	}

	entries := mustTranscript(t, eng, 0)
	for i, e := range entries {
		b, err := engine.EncodeEntry(e)
		if err != nil {
			t.Fatalf("encode entry %d: %v", i, err)
		}
		got, err := engine.DecodeEntry(b)
		if err != nil {
			t.Fatalf("decode entry %d: %v", i, err)
		}
		// The wire transcript renders from these fields; compare the
		// rendered forms plus the raw numeric payloads.
		if (got.Query == nil) != (e.Query == nil) {
			t.Fatalf("entry %d: query presence changed", i)
		}
		if e.Query != nil && got.Query.String() != e.Query.String() {
			t.Fatalf("entry %d: query rendering changed:\n  %s\n  %s", i, e.Query, got.Query)
		}
		if got.Label != e.Label || got.Denied != e.Denied || got.Epsilon != e.Epsilon {
			t.Fatalf("entry %d: scalar fields changed: %+v vs %+v", i, got, e)
		}
		if (got.Answer == nil) != (e.Answer == nil) {
			t.Fatalf("entry %d: answer presence changed", i)
		}
		if e.Answer != nil {
			if !reflect.DeepEqual(got.Answer.Counts, e.Answer.Counts) ||
				!reflect.DeepEqual(got.Answer.Selected, e.Answer.Selected) ||
				got.Answer.Epsilon != e.Answer.Epsilon ||
				got.Answer.EpsilonUpper != e.Answer.EpsilonUpper ||
				got.Answer.Mechanism != e.Answer.Mechanism {
				t.Fatalf("entry %d: answer changed:\n  %+v\n  %+v", i, got.Answer, e.Answer)
			}
			if len(got.Answer.Predicates) != len(e.Answer.Predicates) {
				t.Fatalf("entry %d: answer predicates lost", i)
			}
		}
	}
}

func TestEntryCodecRejectsFuncPredicates(t *testing.T) {
	q, err := query.NewWCQ(
		[]dataset.Predicate{dataset.Func{Name: "f", Fn: func(*dataset.Schema, dataset.Tuple) bool { return true }}},
		accuracy.Requirement{Alpha: 10, Beta: 0.1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.EncodeEntry(engine.Entry{Query: q}); err == nil {
		t.Fatal("encoded a Func predicate; want error")
	}
}

func TestCommitHookOrderingAndPersistFailure(t *testing.T) {
	tb := replayTable(t, 300)
	var seen []int
	fail := false
	eng, err := engine.New(tb, engine.Config{
		Budget: 5,
		Rng:    rand.New(rand.NewSource(3)),
		OnCommit: func(_ context.Context, n int, e engine.Entry) error {
			if fail {
				return fmt.Errorf("disk on fire")
			}
			seen = append(seen, n)
			if _, err := engine.EncodeEntry(e); err != nil {
				return err
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Ask(replayWCQ(t, 50)); err != nil {
		t.Fatal(err)
	}
	if err := eng.ChargeExternal(0.1, 0.1, "SUM(age)"); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seen, []int{0, 1}) {
		t.Fatalf("commit sequence = %v", seen)
	}

	// A failing hook withholds the answer but keeps the charge: spending
	// must never be under-accounted relative to what reached the analyst.
	fail = true
	before := eng.Spent()
	_, err = eng.Ask(replayWCQ(t, 40))
	if !errors.Is(err, engine.ErrPersist) {
		t.Fatalf("persist failure: %v", err)
	}
	if eng.Spent() <= before {
		t.Fatalf("spent did not increase after withheld answer: %v -> %v", before, eng.Spent())
	}
	if eng.TranscriptLen() != 3 {
		t.Fatalf("transcript len = %d, want 3 (entry kept)", eng.TranscriptLen())
	}
}

func TestSealStopsInteractions(t *testing.T) {
	tb := replayTable(t, 300)
	var commits int
	eng, err := engine.New(tb, engine.Config{
		Budget:   5,
		Rng:      rand.New(rand.NewSource(3)),
		OnCommit: func(context.Context, int, engine.Entry) error { commits++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Ask(replayWCQ(t, 50)); err != nil {
		t.Fatal(err)
	}
	spent, n := eng.Spent(), eng.TranscriptLen()
	eng.Seal()
	if _, err := eng.Ask(replayWCQ(t, 40)); !errors.Is(err, engine.ErrSealed) {
		t.Fatalf("Ask after Seal: %v", err)
	}
	if err := eng.ChargeExternal(0.1, 0.1, "SUM(age)"); !errors.Is(err, engine.ErrSealed) {
		t.Fatalf("ChargeExternal after Seal: %v", err)
	}
	// Sealed interactions charge nothing, log nothing, commit nothing.
	if eng.Spent() != spent || eng.TranscriptLen() != n || commits != 1 {
		t.Fatalf("sealed engine mutated: spent %v->%v, len %d->%d, commits %d",
			spent, eng.Spent(), n, eng.TranscriptLen(), commits)
	}
}

func TestTranscriptSince(t *testing.T) {
	tb := replayTable(t, 300)
	eng, err := engine.New(tb, engine.Config{Budget: 5, Rng: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := eng.Ask(replayWCQ(t, 50+float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	full := mustTranscript(t, eng, 0)
	if len(full) != 3 {
		t.Fatalf("len = %d", len(full))
	}
	tail := mustTranscript(t, eng, 2)
	if len(tail) != 1 || tail[0].Query.String() != full[2].Query.String() {
		t.Fatalf("TranscriptSince(2) = %+v", tail)
	}
	if got := mustTranscript(t, eng, 3); got != nil {
		t.Fatalf("TranscriptSince(len) = %+v, want nil", got)
	}
	if got := mustTranscript(t, eng, 99); got != nil {
		t.Fatalf("TranscriptSince(past end) = %+v, want nil", got)
	}
	if got := mustTranscript(t, eng, -5); len(got) != 3 {
		t.Fatalf("TranscriptSince(-5) len = %d, want 3", len(got))
	}
	spent, err := eng.Validate()
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if spent != eng.Spent() {
		t.Fatalf("Validate spent %v != Spent %v", spent, eng.Spent())
	}
}

func TestReplayRestoresBudgetAndReuse(t *testing.T) {
	tb := replayTable(t, 300)
	eng, err := engine.New(tb, engine.Config{Budget: 5, Rng: rand.New(rand.NewSource(3)), Reuse: true})
	if err != nil {
		t.Fatal(err)
	}
	q := replayWCQ(t, 50)
	first, err := eng.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ChargeExternal(0.2, 0.15, "SUM(age)"); err != nil {
		t.Fatal(err)
	}

	// Round-trip every entry through the WAL encoding, as recovery does.
	var recovered []engine.Entry
	for _, e := range mustTranscript(t, eng, 0) {
		b, err := engine.EncodeEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		d, err := engine.DecodeEntry(b)
		if err != nil {
			t.Fatal(err)
		}
		recovered = append(recovered, d)
	}

	re, err := engine.Replay(tb, engine.Config{Budget: 5, Rng: rand.New(rand.NewSource(99)), Reuse: true}, seqOf(recovered))
	if err != nil {
		t.Fatal(err)
	}
	if re.Spent() != eng.Spent() {
		t.Fatalf("replayed spent %v != original %v", re.Spent(), eng.Spent())
	}
	if re.TranscriptLen() != eng.TranscriptLen() {
		t.Fatalf("replayed len %d != original %d", re.TranscriptLen(), eng.TranscriptLen())
	}
	if _, err := re.Validate(); err != nil {
		t.Fatalf("replayed transcript invalid: %v", err)
	}

	// The inferencer cache must survive: the same workload with a looser
	// requirement is free post-processing after recovery.
	loose := replayWCQ(t, 80)
	spentBefore := re.Spent()
	ans, err := re.Ask(loose)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Mechanism != "cache" || ans.Epsilon != 0 {
		t.Fatalf("reuse lost across replay: mechanism=%s epsilon=%v", ans.Mechanism, ans.Epsilon)
	}
	if re.Spent() != spentBefore {
		t.Fatalf("free reuse charged budget: %v -> %v", spentBefore, re.Spent())
	}
	if !reflect.DeepEqual(ans.Counts, first.Counts) {
		t.Fatalf("reused counts differ from original answer")
	}

	// A transcript that violates the invariant must refuse to replay.
	bad := append([]engine.Entry(nil), recovered...)
	bad = append(bad, engine.Entry{Label: "forged", Epsilon: 100})
	if _, err := engine.Replay(tb, engine.Config{Budget: 5, Rng: rand.New(rand.NewSource(1))}, seqOf(bad)); err == nil {
		t.Fatal("replayed an invalid transcript; want error")
	}
}
