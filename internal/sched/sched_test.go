package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/accuracy"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/mechanism"
	"repro/internal/metrics"
	"repro/internal/noise"
	"repro/internal/query"
	"repro/internal/workload"
)

func testTable(t testing.TB, rows int) *dataset.Table {
	t.Helper()
	s := dataset.MustSchema(
		dataset.Attribute{Name: "v", Kind: dataset.Continuous, Min: 0, Max: 100},
	)
	tab := dataset.NewTable(s)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < rows; i++ {
		tab.MustAppend(dataset.Tuple{dataset.Num(rng.Float64() * 100)})
	}
	return tab
}

// sessionQueries builds a per-session sequence of queries over partially
// overlapping but distinct workloads: shared decade bins plus a
// session/query specific range, in all three query kinds.
func sessionQueries(t testing.TB, sess, n int) []*query.Query {
	t.Helper()
	out := make([]*query.Query, 0, n)
	for i := 0; i < n; i++ {
		bins, err := workload.Histogram1D("v", 0, 100, 20)
		if err != nil {
			t.Fatal(err)
		}
		lo := float64((sess*13+i*7)%80) + 0.5
		preds := append(bins, dataset.Range{Attr: "v", Lo: lo, Hi: lo + 10})
		req := accuracy.Requirement{Alpha: 30 + float64(i%3)*10, Beta: 0.05}
		var q *query.Query
		switch i % 3 {
		case 0:
			q, err = query.NewWCQ(preds, req)
		case 1:
			q, err = query.NewICQ(preds, 50, req)
		default:
			q, err = query.NewTCQ(preds, 2, req)
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, q)
	}
	return out
}

func newSessionEngine(t testing.TB, d *dataset.Table, cache *workload.TransformCache, budget float64, seed int64, reuse bool) *engine.Engine {
	t.Helper()
	e, err := engine.New(d, engine.Config{
		Budget:     budget,
		Mode:       engine.Optimistic,
		Rng:        noise.NewRand(seed),
		Transforms: cache,
		Reuse:      reuse,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

type askResult struct {
	ans *engine.Answer
	err error
}

// TestSchedulerMatchesDirectAsk is the differential acceptance test: the
// same per-session query sequences, with the same seeds, must produce
// bit-for-bit identical answers and transcripts whether driven directly
// through engine.Ask or through the batching scheduler.
func TestSchedulerMatchesDirectAsk(t *testing.T) {
	const sessions, queries = 4, 6
	d := testTable(t, 3000)

	run := func(useSched bool) ([][]askResult, []*engine.Engine) {
		cache := workload.NewTransformCache(workload.Options{})
		engines := make([]*engine.Engine, sessions)
		for i := range engines {
			// Session 0 runs with reuse on so the free-reuse path is part
			// of the equivalence check; a tight budget on the last session
			// makes denial parity part of it too.
			budget := 50.0
			if i == sessions-1 {
				budget = 0.5
			}
			engines[i] = newSessionEngine(t, d, cache, budget, int64(100+i), i == 0)
		}
		results := make([][]askResult, sessions)
		var s *Scheduler
		if useSched {
			s = New(Config{Workers: 2, MaxBatch: 8})
			defer s.Close()
		}
		var wg sync.WaitGroup
		for i := 0; i < sessions; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				qs := sessionQueries(t, i, queries)
				if i == 0 {
					// Re-ask the first workload with a looser requirement:
					// with reuse on this must come back from the cache.
					loose := *qs[0]
					loose.Req = accuracy.Requirement{Alpha: qs[0].Req.Alpha * 2, Beta: qs[0].Req.Beta}
					qs = append(qs, &loose)
				}
				for _, q := range qs {
					var r askResult
					if useSched {
						r.ans, r.err = s.Ask(context.Background(), "d", fmt.Sprintf("s%d", i), engines[i], q)
					} else {
						r.ans, r.err = engines[i].Ask(q)
					}
					results[i] = append(results[i], r)
				}
			}(i)
		}
		wg.Wait()
		return results, engines
	}

	direct, directEngines := run(false)
	sched, schedEngines := run(true)

	reused := false
	for i := range direct {
		if len(direct[i]) != len(sched[i]) {
			t.Fatalf("session %d: %d direct results vs %d scheduled", i, len(direct[i]), len(sched[i]))
		}
		for j := range direct[i] {
			dr, sr := direct[i][j], sched[i][j]
			if (dr.err == nil) != (sr.err == nil) || (dr.err != nil && dr.err.Error() != sr.err.Error()) {
				t.Fatalf("session %d query %d: direct err %v, scheduled err %v", i, j, dr.err, sr.err)
			}
			if !reflect.DeepEqual(dr.ans, sr.ans) {
				t.Fatalf("session %d query %d: answers differ\ndirect:    %+v\nscheduled: %+v", i, j, dr.ans, sr.ans)
			}
			if dr.ans != nil && dr.ans.Mechanism == "cache" {
				reused = true
			}
		}
		dt, derr := directEngines[i].Transcript()
		st, serr := schedEngines[i].Transcript()
		if derr != nil || serr != nil {
			t.Fatalf("session %d: transcript reads: %v, %v", i, derr, serr)
		}
		if !reflect.DeepEqual(dt, st) {
			t.Fatalf("session %d: transcripts differ", i)
		}
		if _, err := engine.ValidateTranscript(st, schedEngines[i].Budget()); err != nil {
			t.Fatalf("session %d: scheduled transcript invalid: %v", i, err)
		}
	}
	if !reused {
		t.Fatal("test never exercised the reuse path; tighten the setup")
	}
	var denied bool
	for _, r := range sched[sessions-1] {
		denied = denied || errors.Is(r.err, engine.ErrDenied)
	}
	if !denied {
		t.Fatal("test never exercised the denial path; tighten the budget")
	}
}

// TestSchedulerConcurrentMixedWorkloads floods one dataset with many
// sessions asking mixed distinct workloads concurrently (run under
// -race) and re-validates every transcript against Definition 6.1.
func TestSchedulerConcurrentMixedWorkloads(t *testing.T) {
	const sessions, queries = 8, 8
	d := testTable(t, 1500)
	cache := workload.NewTransformCache(workload.Options{})
	reg := metrics.NewRegistry()
	s := New(Config{Workers: 3, MaxBatch: 8, Metrics: reg})
	defer s.Close()

	engines := make([]*engine.Engine, sessions)
	for i := range engines {
		engines[i] = newSessionEngine(t, d, cache, 0.6, int64(500+i), i%2 == 0)
	}
	var answered, deniedN atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, q := range sessionQueries(t, i, queries) {
				ans, err := s.Ask(context.Background(), "d", fmt.Sprintf("s%d", i), engines[i], q)
				switch {
				case err == nil && ans != nil:
					answered.Add(1)
				case errors.Is(err, engine.ErrDenied):
					deniedN.Add(1)
				default:
					t.Errorf("session %d: unexpected error: %v", i, err)
				}
			}
		}(i)
	}
	wg.Wait()

	for i, e := range engines {
		spent, err := e.Validate()
		if err != nil {
			t.Fatalf("session %d: transcript invalid: %v", i, err)
		}
		if spent > e.Budget()+1e-9 {
			t.Fatalf("session %d: spent %v beyond budget %v", i, spent, e.Budget())
		}
	}
	if answered.Load() == 0 || deniedN.Load() == 0 {
		t.Fatalf("want both answered and denied outcomes, got %d/%d", answered.Load(), deniedN.Load())
	}
	out := reg.Render()
	for _, want := range []string{
		"apex_sched_batch_size", "apex_sched_queue_wait_seconds",
		"apex_mechanism_latency_seconds", "apex_budget_spend_epsilon",
		`apex_sched_requests_total{dataset="d",outcome="answered"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, out)
		}
	}
}

// gateState coordinates gate mechanisms across engines: the first
// `blocks` Runs anywhere block until released (one token per send on
// release, or close it to open the gate for good), and every Run's owner
// is logged, so tests can both hold a worker mid-batch and assert
// execution order deterministically (worker delivery order, not
// goroutine wakeup order).
type gateState struct {
	started chan struct{}
	release chan struct{}
	blocks  atomic.Int32
	mu      sync.Mutex
	log     []string
}

func newGateState() *gateState {
	g := &gateState{started: make(chan struct{}, 64), release: make(chan struct{}, 64)}
	g.blocks.Store(1)
	return g
}

func (g *gateState) executed() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.log...)
}

// gateMech is one session's gate mechanism.
type gateMech struct {
	owner string
	state *gateState
}

func (g gateMech) Name() string { return "gate" }
func (g gateMech) Applicable(q *query.Query, _ *workload.Transformed) bool {
	return q.Kind == query.WCQ
}
func (g gateMech) Translate(*query.Query, *workload.Transformed) (mechanism.Cost, error) {
	return mechanism.Cost{Lower: 0.01, Upper: 0.01}, nil
}
func (g gateMech) Prefetch(*query.Query, *workload.Transformed) mechanism.Prefetch {
	return mechanism.Prefetch{}
}
func (g gateMech) Run(q *query.Query, _ *workload.Transformed, _ *dataset.Table, _ *rand.Rand, _ mechanism.Cost) (*mechanism.Result, error) {
	g.state.mu.Lock()
	g.state.log = append(g.state.log, g.owner)
	g.state.mu.Unlock()
	g.state.started <- struct{}{}
	if g.state.blocks.Add(-1) >= 0 {
		<-g.state.release
	}
	return &mechanism.Result{Counts: make([]float64, q.L()), Epsilon: 0.01}, nil
}

func gatedEngine(t testing.TB, d *dataset.Table, owner string, st *gateState) *engine.Engine {
	t.Helper()
	e, err := engine.New(d, engine.Config{
		Budget:     100,
		Rng:        noise.NewRand(1),
		Mechanisms: []mechanism.Mechanism{gateMech{owner: owner, state: st}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func gateQuery(t testing.TB) *query.Query {
	t.Helper()
	preds, err := workload.Histogram1D("v", 0, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.NewWCQ(preds, accuracy.Requirement{Alpha: 10, Beta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// waitDepth polls the queue-depth gauge until it reaches want.
func waitDepth(t testing.TB, reg *metrics.Registry, dataset string, want float64) {
	t.Helper()
	g := reg.Gauge("apex_sched_queue_depth",
		"Requests queued (admitted, not yet dispatched) per dataset.",
		metrics.L("dataset", dataset))
	deadline := time.Now().Add(5 * time.Second)
	for g.Value() != want {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %v (at %v)", want, g.Value())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSchedulerBackpressure: a full queue must reject immediately with
// ErrQueueFull instead of queueing unboundedly.
func TestSchedulerBackpressure(t *testing.T) {
	d := testTable(t, 50)
	g := newGateState()
	eng := gatedEngine(t, d, "A", g)
	reg := metrics.NewRegistry()
	s := New(Config{Workers: 1, QueueDepth: 2, MaxPerSession: 2, Metrics: reg})
	q := gateQuery(t)

	results := make(chan askResult, 8)
	ask := func() {
		ans, err := s.Ask(context.Background(), "d", "A", eng, q)
		results <- askResult{ans, err}
	}
	go ask()
	<-g.started // the worker is now blocked inside the first Run
	go ask()
	go ask()
	waitDepth(t, reg, "d", 2)

	if _, err := s.Ask(context.Background(), "d", "A", eng, q); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("4th request: got %v, want ErrQueueFull", err)
	}
	// Another session is also rejected: the dataset queue itself is full.
	eng2 := gatedEngine(t, d, "B", g)
	if _, err := s.Ask(context.Background(), "d", "B", eng2, q); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("other session: got %v, want ErrQueueFull", err)
	}

	close(g.release)
	for i := 0; i < 3; i++ {
		if r := <-results; r.err != nil {
			t.Fatalf("queued request %d failed: %v", i, r.err)
		}
	}
	s.Close()
}

// TestSchedulerFairness: one flooding session must not starve another —
// each batch takes at most one request per session, round-robin.
func TestSchedulerFairness(t *testing.T) {
	d := testTable(t, 50)
	g := newGateState()
	engA, engB := gatedEngine(t, d, "A", g), gatedEngine(t, d, "B", g)
	reg := metrics.NewRegistry()
	s := New(Config{Workers: 1, MaxBatch: 4, Metrics: reg})
	defer s.Close()
	q := gateQuery(t)

	var wg sync.WaitGroup
	ask := func(who string, eng *engine.Engine) {
		defer wg.Done()
		if _, err := s.Ask(context.Background(), "d", who, eng, q); err != nil {
			t.Errorf("%s: %v", who, err)
		}
	}
	wg.Add(1)
	go ask("A", engA)
	<-g.started // A1 holds the only worker
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go ask("A", engA)
	}
	wg.Add(1)
	go ask("B", engB)
	waitDepth(t, reg, "d", 6)
	close(g.release)
	wg.Wait()

	// B enqueued after five A requests, yet must execute within the next
	// dispatch round (each batch takes at most one request per session,
	// round-robin): right after A1 and at worst one more A — never behind
	// the whole A backlog.
	sequence := g.executed()
	bAt := -1
	for i, who := range sequence {
		if who == "B" {
			bAt = i
			break
		}
	}
	if bAt < 0 || bAt > 2 {
		t.Fatalf("B executed at position %d of %v; round-robin should dispatch it in the first post-gate batch", bAt, sequence)
	}
}

// TestSchedulerDrainFlushes: Drain must stop intake and wait until every
// queued request has been executed — nothing dropped, nothing new let in.
func TestSchedulerDrainFlushes(t *testing.T) {
	d := testTable(t, 50)
	g := newGateState()
	eng := gatedEngine(t, d, "A", g)
	reg := metrics.NewRegistry()
	s := New(Config{Workers: 1, Metrics: reg})
	q := gateQuery(t)

	results := make(chan askResult, 8)
	for i := 0; i < 5; i++ {
		go func() {
			ans, err := s.Ask(context.Background(), "d", "A", eng, q)
			results <- askResult{ans, err}
		}()
	}
	<-g.started
	waitDepth(t, reg, "d", 4)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v while work was still queued", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(g.release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for i := 0; i < 5; i++ {
		if r := <-results; r.err != nil {
			t.Fatalf("flushed request %d failed: %v", i, r.err)
		}
	}
	if _, err := s.Ask(context.Background(), "d", "A", eng, q); !errors.Is(err, ErrShutdown) {
		t.Fatalf("post-drain Ask: got %v, want ErrShutdown", err)
	}
	s.Close()
}

// TestSchedulerCloseRejectsQueued: Close must complete queued-but-
// unstarted requests with ErrShutdown (never drop them silently) while
// the in-flight one finishes normally.
func TestSchedulerCloseRejectsQueued(t *testing.T) {
	d := testTable(t, 50)
	g := newGateState()
	eng := gatedEngine(t, d, "A", g)
	reg := metrics.NewRegistry()
	s := New(Config{Workers: 1, Metrics: reg})
	q := gateQuery(t)

	first := make(chan askResult, 1)
	go func() {
		ans, err := s.Ask(context.Background(), "d", "A", eng, q)
		first <- askResult{ans, err}
	}()
	<-g.started
	queued := make(chan askResult, 2)
	for i := 0; i < 2; i++ {
		go func() {
			ans, err := s.Ask(context.Background(), "d", "A", eng, q)
			queued <- askResult{ans, err}
		}()
	}
	waitDepth(t, reg, "d", 2)

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	for i := 0; i < 2; i++ {
		if r := <-queued; !errors.Is(r.err, ErrShutdown) {
			t.Fatalf("queued request: got %v, want ErrShutdown", r.err)
		}
	}
	close(g.release)
	if r := <-first; r.err != nil {
		t.Fatalf("in-flight request failed: %v", r.err)
	}
	<-closed
}

// TestSchedulerCanceledAfterPrepare: a request whose context dies after
// admission (its plan is prepared, another flight of the same batch is
// still executing) must be aborted before its mechanism runs — the
// reservation released, nothing charged, nothing logged — exactly like
// direct AskContext in that window.
func TestSchedulerCanceledAfterPrepare(t *testing.T) {
	d := testTable(t, 50)
	g := newGateState()
	g.blocks.Store(2) // A1 holds batch 1; A2 holds batch 2 mid-phase-3
	engA, engB := gatedEngine(t, d, "A", g), gatedEngine(t, d, "B", g)
	reg := metrics.NewRegistry()
	s := New(Config{Workers: 1, MaxBatch: 4, Metrics: reg})
	defer s.Close()
	q := gateQuery(t)

	results := make(chan askResult, 4)
	go func() {
		ans, err := s.Ask(context.Background(), "d", "A", engA, q)
		results <- askResult{ans, err}
	}()
	<-g.started // A1 blocks the only worker inside batch 1
	go func() {
		ans, err := s.Ask(context.Background(), "d", "A", engA, q)
		results <- askResult{ans, err}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	errB := make(chan error, 1)
	go func() {
		_, err := s.Ask(ctx, "d", "B", engB, q)
		errB <- err
	}()
	waitDepth(t, reg, "d", 2) // A2 and B1 queued; they will share batch 2
	g.release <- struct{}{}   // A1 completes; worker takes batch 2, prepares A2 AND B1
	<-g.started               // A2's mechanism is running: B1 is already admitted
	cancel()                  // ...and now canceled, after Prepare, before Execute
	if err := <-errB; !errors.Is(err, context.Canceled) {
		t.Fatalf("B: got %v, want context.Canceled", err)
	}
	g.release <- struct{}{} // let A2 finish; the worker then reaches B1
	for i := 0; i < 2; i++ {
		if r := <-results; r.err != nil {
			t.Fatalf("A request failed: %v", r.err)
		}
	}
	// B was aborted: no transcript entry, no charge, reservation released
	// (a full-budget ask must succeed afterwards).
	if n := engB.TranscriptLen(); n != 0 {
		t.Fatalf("canceled request left %d transcript entries", n)
	}
	if spent := engB.Spent(); spent != 0 {
		t.Fatalf("canceled request charged %v", spent)
	}
	if _, err := engB.Ask(q); err != nil {
		t.Fatalf("B engine unusable after abort: %v", err)
	}
}

// TestSchedulerCanceledWhileQueued: a request whose context dies in the
// queue is abandoned at dispatch — nothing charged, nothing logged.
func TestSchedulerCanceledWhileQueued(t *testing.T) {
	d := testTable(t, 50)
	g := newGateState()
	eng := gatedEngine(t, d, "A", g)
	reg := metrics.NewRegistry()
	s := New(Config{Workers: 1, Metrics: reg})
	defer s.Close()
	q := gateQuery(t)

	go func() { _, _ = s.Ask(context.Background(), "d", "A", eng, q) }()
	<-g.started
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Ask(ctx, "d", "A", eng, q)
		errc <- err
	}()
	waitDepth(t, reg, "d", 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	before := eng.TranscriptLen()
	close(g.release)
	// The worker eventually processes (and abandons) the canceled slot.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Gauge("apex_sched_queue_depth", "", metrics.L("dataset", "d")).Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue never drained")
		}
		time.Sleep(time.Millisecond)
	}
	if got := eng.TranscriptLen(); got < before {
		t.Fatalf("transcript shrank: %d -> %d", before, got)
	}
}

// opaqueBins is an opaque predicate (dataset.Func) with declared
// breakpoints: it transforms, but only the row path can evaluate it.
type opaqueBins struct{ dataset.Func }

func (opaqueBins) Breakpoints() map[string][]float64 { return map[string][]float64{"v": {50}} }

// TestSchedulerCountsScanFallbacks: a workload the scan kernel cannot
// take is still answered, and shows up in apex_scan_fallback_total under
// its reason; the other reasons are exported at zero from the start.
func TestSchedulerCountsScanFallbacks(t *testing.T) {
	d := testTable(t, 300)
	reg := metrics.NewRegistry()
	s := New(Config{Workers: 1, Metrics: reg})
	defer s.Close()
	e := newSessionEngine(t, d, workload.NewTransformCache(workload.Options{}), 10, 1, false)

	low := opaqueBins{dataset.Func{Name: "low", ReadAttrs: []string{"v"}, Fn: func(sc *dataset.Schema, tu dataset.Tuple) bool {
		v, ok := tu[0].AsNum()
		return ok && v < 50
	}}}
	for _, preds := range [][]dataset.Predicate{
		{low},
		{dataset.Range{Attr: "v", Lo: 0, Hi: 50}},
	} {
		q, err := query.NewWCQ(preds, accuracy.Requirement{Alpha: 40, Beta: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Ask(context.Background(), "d", "s", e, q); err != nil {
			t.Fatal(err)
		}
	}
	for reason, want := range map[string]float64{workload.FallbackOpaque: 1, workload.FallbackImplicit: 0, workload.FallbackGrid: 0} {
		got := reg.Counter("apex_scan_fallback_total", "", metrics.L("dataset", "d"), metrics.L("reason", reason)).Value()
		if got != want {
			t.Errorf("apex_scan_fallback_total{reason=%q} = %v, want %v", reason, got, want)
		}
	}
	if !strings.Contains(reg.Render(), `apex_scan_fallback_total{dataset="d",reason="grid"} 0`) {
		t.Errorf("fallback reasons are not pre-registered at zero:\n%s", reg.Render())
	}
}

// packedTable is a sealed table of one frame-of-reference packed integer
// column (7-bit lanes) — a table whose column set has a projection —
// built by the column store's rules without a file.
func packedTable(t testing.TB, rows int) *dataset.Table {
	t.Helper()
	s := dataset.MustSchema(dataset.Attribute{Name: "v", Kind: dataset.Continuous, Min: 0, Max: 100})
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, rows)
	var frame dataset.FoRFrame
	for i := range vals {
		vals[i] = float64(rng.Intn(101))
		frame.Add(vals[i])
	}
	p, ok := frame.Packing()
	if !ok {
		t.Fatal("integer column does not pack")
	}
	w := p.Ints.Width
	p.Ints.N, p.Ints.Words = rows, make([]uint64, dataset.PackedWordCount(rows, w))
	for i, v := range vals {
		lane, _ := p.LaneOf(v)
		p.Ints.Words[i/(64/w)] |= lane << (uint(i%(64/w)) * uint(w))
	}
	tab, err := dataset.TableFromColumns(s, rows, []dataset.ColumnData{
		{Kind: dataset.Continuous, PackedVals: &p, MissingWords: make([]uint64, (rows+63)/64)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestColdPlannerAdvancesOnProjectionHits: once a projection answers
// every batch, no batch reads a column — and the planner must still count
// those batches, or the pages the build walked stay resident for good.
// One build, then coldAfterBatches projection-answered batches: the built
// column is released exactly once, through the table's one release hook,
// and every workload is counted under its outcome.
func TestColdPlannerAdvancesOnProjectionHits(t *testing.T) {
	d := packedTable(t, 4096)
	var mu sync.Mutex
	var advised, released [][]int
	d.SetColumnHints(
		func(cols []int) { mu.Lock(); advised = append(advised, append([]int(nil), cols...)); mu.Unlock() },
		func(cols []int) { mu.Lock(); released = append(released, append([]int(nil), cols...)); mu.Unlock() },
	)
	reg := metrics.NewRegistry()
	s := New(Config{Workers: 1, Metrics: reg})
	defer s.Close()
	e := newSessionEngine(t, d, workload.NewTransformCache(workload.Options{}), 1000, 1, false)
	ask := func(i int) {
		t.Helper()
		lo := float64(i) + 0.5 // a never-seen workload each time: no memo answers it
		q, err := query.NewWCQ([]dataset.Predicate{dataset.Range{Attr: "v", Lo: lo, Hi: lo + 10}}, accuracy.Requirement{Alpha: 400, Beta: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Ask(context.Background(), "d", "s", e, q); err != nil {
			t.Fatal(err)
		}
	}
	counted := func(outcome string) float64 {
		return reg.Counter("apex_scan_projection_total", "", metrics.L("dataset", "d"), metrics.L("outcome", outcome)).Value()
	}
	ask(0)
	if b, h := counted(dataset.ProjectionBuild), counted(dataset.ProjectionHit); b != 1 || h != 0 {
		t.Fatalf("after the first workload: %v builds, %v hits; want the one build", b, h)
	}
	for i := 1; i < coldAfterBatches; i++ {
		ask(i)
	}
	mu.Lock()
	if len(released) != 0 {
		t.Fatalf("column released after %d idle batches: %v", coldAfterBatches-1, released)
	}
	mu.Unlock()
	for i := coldAfterBatches; i < coldAfterBatches+10; i++ {
		ask(i)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(released) != 1 || !reflect.DeepEqual(released[0], []int{0}) {
		t.Fatalf("released = %v, want the built column [0] exactly once", released)
	}
	if len(advised) == 0 || !reflect.DeepEqual(advised[0], []int{0}) {
		t.Fatalf("advised = %v, want the build to advise column [0]", advised)
	}
	if b, h, in := counted(dataset.ProjectionBuild), counted(dataset.ProjectionHit), counted(dataset.ProjectionIneligible); b != 1 || h != coldAfterBatches+9 || in != 0 {
		t.Fatalf("projection outcomes: %v builds, %v hits, %v ineligible; want 1, %d, 0", b, h, in, coldAfterBatches+9)
	}
	if held := reg.Gauge("apex_scan_projection_bytes", "", metrics.L("dataset", "d")).Value(); held != float64(d.ProjectionBytes()) || held <= 0 {
		t.Fatalf("apex_scan_projection_bytes = %v, the table holds %d B", held, d.ProjectionBytes())
	}
	if !strings.Contains(reg.Render(), `apex_scan_projection_total{dataset="d",outcome="ineligible"} 0`) {
		t.Errorf("projection outcomes are not pre-registered at zero:\n%s", reg.Render())
	}
}
