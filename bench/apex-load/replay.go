package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"repro/bench/loadgen"
	"repro/internal/colstore"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/noise"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/translate"
	"repro/internal/workload"
)

// replayRequests is how many of the window's first requests the layer
// replay drives.
const replayRequests = 200

// replayResult sums the time each layer's public entry point took when
// the loader itself drove the request path, one request at a time.
type replayResult struct {
	n       int
	wall    time.Duration
	parse   time.Duration // query.ParseLine
	warm    time.Duration // Engine.TranslationNeeds + Source.TranslateBatch
	prepare time.Duration // Engine.Prepare
	scan    time.Duration // TransformCache.EvaluateBatch
	execute time.Duration // Engine.Execute
	commit  time.Duration // Engine.Commit, the WAL append inside it included
	wal     time.Duration // store.SessionLog.AppendEntry, from inside the commit hook
	encode  time.Duration // JSON-encoding server.QueryResponse
}

// replay drives the first replayRequests requests of the run through the
// layers' public phase API exactly as sched.runBatch does for a batch of
// one — ParseLine → TranslationNeeds+TranslateBatch → Prepare →
// EvaluateBatch → Execute → Commit, with a real fsynced session log under
// the commit hook — timing each call. No HTTP, no queue, no second
// process: what remains is the layers' own cost on this machine and disk.
// segment is a table.seg the server built, so the table has the storage
// shape the server served from.
func (r *runner) replay(segment string) (*replayResult, error) {
	var table *dataset.Table
	if r.wl.Mmap {
		seg, err := colstore.Open(segment)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		defer seg.Close()
		table = seg.Table()
	} else {
		var err error
		if table, err = colstore.Load(segment); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	st, err := store.Open(filepath.Join(r.work, "replay"))
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	transforms := workload.NewTransformCache(workload.Options{})
	translations := translate.NewCache(filepath.Join(r.work, "replay", store.TranslateSidecarFile))

	res := &replayResult{}
	engines := make([]*engine.Engine, r.sessions())
	for s := range engines {
		slog, err := st.CreateSessionLog(store.SessionMeta{
			ID: fmt.Sprintf("replay%04d", s), Dataset: datasetName, Budget: sessionBudget,
			Mode: engine.Optimistic.String(), Created: time.Now(),
		})
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		defer slog.Close()
		engines[s], err = engine.New(table, engine.Config{
			Budget:       sessionBudget,
			Mode:         engine.Optimistic,
			Rng:          noise.NewRand(r.seed*1000 + int64(s) + 1),
			Transforms:   transforms,
			Translations: translations,
			OnCommit: func(ctx context.Context, _ int, e engine.Entry) error {
				start := time.Now()
				err := slog.AppendEntry(ctx, e)
				res.wal += time.Since(start)
				return err
			},
		})
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}

	// The same requests, in the order a single client would issue them.
	gen := loadgen.New(r.wl.Spec, r.seed, r.sessions())
	streams := make([]*loadgen.Stream, r.sessions())
	for s := range streams {
		streams[s] = gen.Stream(s)
	}
	warmup := gen.Warmup()
	ctx := context.Background()
	var out bytes.Buffer
	for i := -len(warmup); i < replayRequests; i++ {
		iter := time.Now()
		var req loadgen.Request
		if i < 0 {
			req = warmup[len(warmup)+i] // untimed, as in set-up
		} else {
			req = streams[i%len(streams)].Next()
		}
		eng := engines[req.Session]
		text := req.Query.Text()

		t0 := time.Now()
		q, err := query.ParseLine(text)
		if err != nil || q == nil {
			return nil, fmt.Errorf("replay: parse: %v", err)
		}
		t1 := time.Now()
		for _, need := range eng.TranslationNeeds(q) {
			need.Source.TranslateBatch([]translate.Item{need.Item})
		}
		t2 := time.Now()
		plan, ans, err := eng.Prepare(ctx, q)
		if err != nil || ans != nil || plan == nil {
			return nil, fmt.Errorf("replay: prepare: plan %v, answer %v: %v", plan != nil, ans != nil, err)
		}
		t3 := time.Now()
		if plan.Needs.Histogram || plan.Needs.Truth {
			transforms.EvaluateBatch(table, []workload.BatchItem{{
				Tr: plan.Transformed, Histogram: plan.Needs.Histogram, Truth: plan.Needs.Truth,
			}})
		}
		t4 := time.Now()
		outcome := eng.Execute(ctx, plan)
		t5 := time.Now()
		walBefore := res.wal
		got, err := eng.Commit(ctx, plan, outcome)
		if err != nil {
			return nil, fmt.Errorf("replay: commit: %w", err)
		}
		t6 := time.Now()
		out.Reset()
		preds := make([]string, len(got.Predicates))
		for j, p := range got.Predicates {
			preds[j] = p.String()
		}
		spent := eng.Spent()
		if err := json.NewEncoder(&out).Encode(server.QueryResponse{
			Mechanism: got.Mechanism, Epsilon: got.Epsilon, EpsilonUpper: got.EpsilonUpper,
			Counts: got.Counts, Selected: got.Selected, Predicates: preds,
			Spent: spent, Remaining: eng.Budget() - spent,
		}); err != nil {
			return nil, fmt.Errorf("replay: encode: %w", err)
		}
		t7 := time.Now()
		if i < 0 {
			res.wal = walBefore // the warm-up is outside the measurement
			continue
		}
		res.n++
		res.parse += t1.Sub(t0)
		res.warm += t2.Sub(t1)
		res.prepare += t3.Sub(t2)
		res.scan += t4.Sub(t3)
		res.execute += t5.Sub(t4)
		res.commit += t6.Sub(t5)
		res.encode += t7.Sub(t6)
		res.wall += t7.Sub(iter)
	}
	return res, nil
}

// metrics reports the replay as per-request means, and the share of the
// replay loop's wall time no timed call accounts for (generating and
// rendering the request, and the timers themselves).
func (p *replayResult) metrics(v values) {
	n := time.Duration(p.n)
	v["query.replay.parse_us_mean"] = us(p.parse / n)
	v["translate.replay.warm_ms"] = ms(p.warm / n)
	v["engine.replay.prepare_us"] = us(p.prepare / n)
	v["workload.replay.scan_ms"] = ms(p.scan / n)
	v["engine.replay.execute_us"] = us(p.execute / n)
	v["engine.replay.commit_self_us"] = us((p.commit - p.wal) / n)
	v["store.replay.wal_append_us"] = us(p.wal / n)
	v["server.replay.encode_us_mean"] = us(p.encode / n)
	timed := p.parse + p.warm + p.prepare + p.scan + p.execute + p.commit + p.encode
	v["replay.residual_share"] = ratio(float64(p.wall-timed), float64(p.wall))
}
