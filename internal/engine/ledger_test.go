package engine

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"reflect"
	"sync"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/noise"
)

// encodedLog is a durable session log's contract held in memory: the
// commit hook keeps each entry's encoded bytes, History decodes them back.
// fail, when set, is what every read returns instead.
type encodedLog struct {
	mu     sync.Mutex
	frames [][]byte
	fail   error
}

func (l *encodedLog) commit(_ context.Context, n int, e Entry) error {
	b, err := EncodeEntry(e)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if n != len(l.frames) {
		return fmt.Errorf("entry %d committed after %d frames", n, len(l.frames))
	}
	l.frames = append(l.frames, b)
	return nil
}

func (l *encodedLog) history(from, to int) iter.Seq2[Entry, error] {
	return func(yield func(Entry, error) bool) {
		l.mu.Lock()
		frames, fail := l.frames, l.fail
		l.mu.Unlock()
		if fail != nil || to > len(frames) {
			yield(Entry{}, errors.Join(fail, fmt.Errorf("entries [%d, %d) of %d", from, to, len(frames))))
			return
		}
		for _, b := range frames[from:to] {
			e, err := DecodeEntry(b)
			if !yield(e, err) || err != nil {
				return
			}
		}
	}
}

// TestLedgerEngineReadsThroughHistory: an engine given a History keeps no
// entries, answers every accounting question from its ledger exactly as
// the retaining engine does, and serves the same transcript through the
// seam — including the ?since= edges — while commits continue; a failed
// read is an error to the reader and nothing to the next commit.
func TestLedgerEngineReadsThroughHistory(t *testing.T) {
	d := testTable(t, []int{40, 30, 20, 10})
	req := accuracy.Requirement{Alpha: 8, Beta: 0.05}
	log := &encodedLog{}
	led, err := New(d, Config{Budget: 3, Mode: Optimistic, Rng: noise.NewRand(3), OnCommit: log.commit, History: log.history})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := New(d, Config{Budget: 3, Mode: Optimistic, Rng: noise.NewRand(3)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ { // runs both to denial
		q := histQuery(t, 4, req)
		la, lerr := led.Ask(q)
		ma, merr := mem.Ask(q)
		if !reflect.DeepEqual(la, ma) || !errors.Is(lerr, merr) {
			t.Fatalf("ask %d: ledger engine %+v, %v; retaining engine %+v, %v", i, la, lerr, ma, merr)
		}
	}
	if err := led.ChargeExternal(0.01, 0.005, "SUM(x)"); err != nil {
		t.Fatal(err)
	}
	if err := mem.ChargeExternal(0.01, 0.005, "SUM(x)"); err != nil {
		t.Fatal(err)
	}
	if led.entries != nil {
		t.Fatalf("engine with a History retained %d entries", len(led.entries))
	}
	ls, lerr := led.VerifyAccounting()
	ms, merr := mem.VerifyAccounting()
	if ls != ms || lerr != nil || merr != nil || led.Spent() != mem.Spent() || led.TranscriptLen() != mem.TranscriptLen() {
		t.Fatalf("accounting: ledger engine %v (%v), retaining engine %v (%v)", ls, lerr, ms, merr)
	}
	want := transcriptOf(t, mem)
	denied := 0
	for i, eps := range led.LedgerEpsilons() {
		if eps != want[i].Epsilon {
			t.Fatalf("ledger ε[%d] = %v, transcript says %v", i, eps, want[i].Epsilon)
		}
		if want[i].Denied {
			denied++
		}
	}
	if denied == 0 {
		t.Fatal("scenario never reached a denial")
	}
	for _, since := range []int{-1, 0, 5, len(want), len(want) + 1} {
		got, err := led.TranscriptSince(since)
		if err != nil {
			t.Fatal(err)
		}
		exp, _ := mem.TranscriptSince(since)
		if len(got) != len(exp) {
			t.Fatalf("since %d: %d entries through History, %d from memory", since, len(got), len(exp))
		}
		for i := range got {
			gb, _ := EncodeEntry(got[i])
			eb, _ := EncodeEntry(exp[i])
			if string(gb) != string(eb) {
				t.Fatalf("since %d entry %d:\n%s\n%s", since, i, gb, eb)
			}
		}
	}

	boom := errors.New("disk on fire")
	log.mu.Lock()
	log.fail = boom
	log.mu.Unlock()
	if got, err := led.Transcript(); !errors.Is(err, boom) || got != nil {
		t.Fatalf("failed read: %d entries, err %v", len(got), err)
	}
	if got, err := led.TranscriptSince(len(want)); err != nil || got != nil {
		t.Fatalf("empty read must not touch the log: %v, %v", got, err)
	}
	if err := led.ChargeExternal(0.001, 0.001, "after"); err != nil {
		t.Fatalf("commit after a failed read: %v", err)
	}
	if _, err := led.VerifyAccounting(); err != nil {
		t.Fatal(err)
	}
}

// TestEntriesNeverBlockCommits: a reader parked in the middle of a
// transcript read holds no engine lock — commits complete while it waits —
// and still sees exactly the entries that existed when it started.
func TestEntriesNeverBlockCommits(t *testing.T) {
	for _, durable := range []bool{false, true} {
		cfg := Config{Budget: 1e6, Rng: noise.NewRand(1)}
		if durable {
			log := &encodedLog{}
			cfg.OnCommit, cfg.History = log.commit, log.history
		}
		e, err := New(testTable(t, []int{5, 5}), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := e.ChargeExternal(1, 1, fmt.Sprint("c", i)); err != nil {
				t.Fatal(err)
			}
		}
		seen := 0
		for en, err := range e.Entries(0) {
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprint("c", seen); en.Label != want {
				t.Fatalf("durable=%v: entry %d is %q, want %q", durable, seen, en.Label, want)
			}
			// Would deadlock if the iteration held the engine lock.
			if err := e.ChargeExternal(1, 1, "during"); err != nil {
				t.Fatal(err)
			}
			seen++
		}
		if seen != 3 || e.TranscriptLen() != 6 {
			t.Fatalf("durable=%v: saw %d entries, engine has %d", durable, seen, e.TranscriptLen())
		}
	}
}
