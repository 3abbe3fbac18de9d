package engine

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/dataset"
	"repro/internal/mechanism"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/strategy"
	"repro/internal/translate"
	"repro/internal/workload"
)

// Differential test for the translation plane: the shared-cache,
// persisted-sidecar and batch-vectorized paths must all be
// indistinguishable from a plain engine with a private per-mechanism
// cache — bit-identical ε per answer and byte-identical Definition 6.1
// transcripts.

func prefixQuery(t *testing.T, bins int, req accuracy.Requirement) *query.Query {
	t.Helper()
	preds, err := workload.Prefix1D("v", 0, 10*float64(bins), 10)
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.NewWCQ(preds, req)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// smEngine builds an engine whose only mechanism is the strategy
// mechanism, reading translations through src (nil = private cache).
func smEngine(t *testing.T, d *dataset.Table, src translate.Source) *Engine {
	t.Helper()
	e, err := New(d, Config{
		Budget:       100,
		Mode:         Optimistic,
		Rng:          noise.NewRand(7),
		Mechanisms:   []mechanism.Mechanism{mechanism.NewSM(strategy.H2, 400)},
		Translations: src,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// askAll runs the fixed query sequence and returns the transcript bytes.
func askAll(t *testing.T, e *Engine, qs []*query.Query) ([]float64, [][]byte) {
	t.Helper()
	var epss []float64
	for _, q := range qs {
		ans, err := e.Ask(q)
		if err != nil {
			t.Fatal(err)
		}
		epss = append(epss, ans.Epsilon)
	}
	var enc [][]byte
	for _, en := range transcriptOf(t, e) {
		b, err := EncodeEntry(en)
		if err != nil {
			t.Fatal(err)
		}
		enc = append(enc, b)
	}
	return epss, enc
}

func TestTranslationPlaneDifferential(t *testing.T) {
	d := testTable(t, []int{100, 200, 300, 400, 100, 200, 300, 400})
	req := accuracy.Requirement{Alpha: 25, Beta: 0.05}
	// Two distinct query matrices (disjoint bins vs cumulative prefixes):
	// the plane keys plans by matrix, so "2 samplings" below counts
	// matrices, not predicate texts.
	qs := []*query.Query{
		histQuery(t, 8, req),
		prefixQuery(t, 8, req),
		histQuery(t, 8, req), // repeat: must hit, not resample
	}

	// Baseline: private in-mechanism cache, the pre-plane behavior.
	baseEps, baseTx := askAll(t, smEngine(t, d, nil), qs)

	// Shared cache: two engines ("sessions") read through one cache.
	shared := translate.NewCache("")
	sharedEps, sharedTx := askAll(t, smEngine(t, d, shared), qs)
	shared2Eps, _ := askAll(t, smEngine(t, d, shared), qs)
	if st := shared.Stats(); st.Misses != 2 {
		t.Fatalf("two sessions over one cache paid %d samplings, want 2", st.Misses)
	}

	// Sidecar: a first process life computes and persists; a second life
	// loads the sidecar and must serve without sampling.
	scPath := filepath.Join(t.TempDir(), "translate.tc")
	life1 := translate.NewCache(scPath)
	if _, _ = askAll(t, smEngine(t, d, life1), qs); life1.Stats().Misses != 2 {
		t.Fatalf("first life paid %d samplings, want 2", life1.Stats().Misses)
	}
	life2 := translate.NewCache(scPath)
	if n, _, err := life2.LoadSidecar(); err != nil || n != 2 {
		t.Fatalf("sidecar load: n=%d err=%v, want 2 plans", n, err)
	}
	sidecarEps, sidecarTx := askAll(t, smEngine(t, d, life2), qs)
	if st := life2.Stats(); st.Misses != 0 {
		t.Fatalf("second life resampled %d times despite the sidecar", st.Misses)
	}

	// Batch: the scheduler's Phase-0 warm pass (TranslationNeeds →
	// TranslateBatch) computes every fresh plan up front.
	warm := translate.NewCache("")
	be := smEngine(t, d, warm)
	var items []translate.Item
	for _, q := range qs {
		for _, n := range be.TranslationNeeds(q) {
			items = append(items, n.Item)
		}
	}
	if n := warm.TranslateBatch(items); n != 2 {
		t.Fatalf("batch warm computed %d plans, want 2", n)
	}
	batchEps, batchTx := askAll(t, be, qs)
	if st := warm.Stats(); st.Misses != 2 {
		t.Fatalf("asks after batch warm resampled (misses=%d, want the batch's 2)", st.Misses)
	}

	// Every path: bit-identical ε, byte-identical transcript.
	for name, eps := range map[string][]float64{
		"shared": sharedEps, "shared-2nd-session": shared2Eps,
		"sidecar": sidecarEps, "batch": batchEps,
	} {
		for i := range baseEps {
			if eps[i] != baseEps[i] {
				t.Fatalf("%s: ε[%d] = %v, baseline %v", name, i, eps[i], baseEps[i])
			}
		}
	}
	for name, tx := range map[string][][]byte{
		"shared": sharedTx, "sidecar": sidecarTx, "batch": batchTx,
	} {
		if len(tx) != len(baseTx) {
			t.Fatalf("%s: %d transcript entries, baseline %d", name, len(tx), len(baseTx))
		}
		for i := range tx {
			if !bytes.Equal(tx[i], baseTx[i]) {
				t.Fatalf("%s: transcript entry %d differs:\n%s\nvs baseline\n%s", name, i, tx[i], baseTx[i])
			}
		}
	}
}

// probeCounter counts the advisory Ready probes reaching a cache.
type probeCounter struct {
	*translate.Cache
	probes int
}

func (p *probeCounter) Ready(m workload.Fingerprint) bool {
	p.probes++
	return p.Cache.Ready(m)
}

// TestPrepareProbesTranslationPlaneOnlyWhenTraced: the translate_cache_hit
// probe exists to annotate the translate span, so a request with no live
// span must not take the cache lock for it — and a traced one gets the
// attribute, keyed by matrix: a never-seen predicate text over a known
// matrix reads as a hit.
func TestPrepareProbesTranslationPlaneOnlyWhenTraced(t *testing.T) {
	d := testTable(t, []int{100, 200, 300, 400, 100, 200, 300, 400})
	req := accuracy.Requirement{Alpha: 25, Beta: 0.05}
	src := &probeCounter{Cache: translate.NewCache("")}
	e := smEngine(t, d, src)

	shifted := func(lo float64) *query.Query {
		preds, err := workload.Histogram1D("v", lo, lo+40, 10)
		if err != nil {
			t.Fatal(err)
		}
		q, err := query.NewWCQ(preds, req)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	if _, err := e.Ask(shifted(10)); err != nil {
		t.Fatal(err)
	}
	if src.probes != 0 {
		t.Fatalf("untraced request probed the translation plane %d times", src.probes)
	}

	tracer := obs.New(obs.Config{})
	for i, want := range []bool{true, false} {
		q := shifted(11.5) // same matrix as shifted(10), new text
		if !want {
			q = histQuery(t, 8, req) // bins from the domain minimum: a new matrix
		}
		ctx, trace := tracer.Start(context.Background(), obs.NewRequestID(), "query")
		if _, err := e.AskContext(ctx, q); err != nil {
			t.Fatal(err)
		}
		trace.Finish()
		if src.probes != i+1 {
			t.Fatalf("traced request %d: %d probes so far, want %d", i, src.probes, i+1)
		}
		views := tracer.Traces(obs.Filter{})
		var hit any
		for _, prep := range views[0].Spans {
			for _, sp := range prep.Spans {
				if sp.Name == "translate" {
					hit = sp.Attrs["translate_cache_hit"]
				}
			}
		}
		if hit != want {
			t.Fatalf("traced request %d: translate_cache_hit = %v, want %v", i, hit, want)
		}
	}
}
