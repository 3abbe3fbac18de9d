package engine

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/datagen"
	"repro/internal/noise"
	"repro/internal/query"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/transcript_golden.jsonl from this tree")

// TestSeededTranscriptGolden pins the contract refactors of the request
// path must not move: a seeded engine with the default suite answers the
// same queries with the same mechanisms, the same ε and the same noisy
// bytes. One query per mechanism (LM: disjoint WCQ histogram, SM-h2: WCQ
// prefix, LTM: TCQ over the prefix, ICQ: MPM when optimistic and LM when
// pessimistic), in both modes; each line of the golden is one
// EncodeEntry payload, captured at commit 58aec9e. Every mode runs twice:
// retaining its entries in memory, and as a durable session's engine does
// — ledger only, entries encoded by the commit hook and decoded back
// through Config.History — and both must render the golden bytes.
func TestSeededTranscriptGolden(t *testing.T) {
	d := datagen.Adult(2000, 1)
	req := accuracy.Requirement{Alpha: 100, Beta: 0.05}
	hist, err := workload.Histogram1D("age", 0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := workload.Prefix1D("age", 0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	build := func(q *query.Query, err error) *query.Query {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	queries := []*query.Query{
		build(query.NewWCQ(hist, req)),
		build(query.NewWCQ(prefix, req)),
		build(query.NewICQ(hist, 300, req)),
		build(query.NewTCQ(prefix, 2, req)),
	}

	for _, durable := range []bool{false, true} {
		var got bytes.Buffer
		used := map[string]bool{}
		for _, mode := range []Mode{Pessimistic, Optimistic} {
			cfg := Config{Budget: 100, Mode: mode, Rng: noise.NewRand(7)}
			if durable {
				log := &encodedLog{}
				cfg.OnCommit, cfg.History = log.commit, log.history
			}
			e, err := New(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				ans, err := e.Ask(q)
				if err != nil {
					t.Fatalf("%s %s: %v", mode, q.Kind, err)
				}
				used[ans.Mechanism] = true
			}
			for _, en := range transcriptOf(t, e) {
				line, err := EncodeEntry(en)
				if err != nil {
					t.Fatal(err)
				}
				got.Write(line)
				got.WriteByte('\n')
			}
		}
		for _, name := range []string{"LM", "SM-h2", "MPM", "LTM"} {
			if !used[name] {
				t.Errorf("no query was answered by %s (used: %v)", name, used)
			}
		}

		path := filepath.Join("testdata", "transcript_golden.jsonl")
		if *updateGolden && !durable {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
			for i := range gl {
				if i >= len(wl) || !bytes.Equal(gl[i], wl[i]) {
					t.Fatalf("durable=%v: transcript entry %d differs from the golden:\n got %s", durable, i, gl[i])
				}
			}
			t.Fatalf("transcript has %d lines, golden %d", len(gl), len(wl))
		}
	}
}
