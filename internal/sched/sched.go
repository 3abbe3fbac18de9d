// Package sched is the per-dataset execution scheduler behind the APEx
// server's query path. Instead of every HTTP handler driving an engine's
// full Ask under its own goroutine — one columnar scan per request, even
// when many distinct requests over the same dataset are pending — the
// scheduler gives each dataset a bounded queue and a small worker pool
// that:
//
//   - admits requests with backpressure: a full queue rejects immediately
//     (ErrQueueFull, which the server maps to 429 + Retry-After) instead
//     of letting latency grow without bound;
//   - dispatches fairly across sessions: each batch takes at most one
//     pending request per session, round-robin, so a flooding analyst
//     cannot starve the others;
//   - coalesces the batch's noise-free scans: every admitted plan's
//     workload is warmed through workload.TransformCache.EvaluateBatch,
//     one deduplicated columnar pass for the whole batch, before the
//     mechanisms run and draw their per-session noise;
//   - preserves per-session semantics exactly: a session's requests are
//     dispatched one at a time in arrival order, so its engine sees the
//     same Prepare/Execute/Commit sequence — and the same noise stream —
//     as direct sequential Ask calls, making scheduled answers
//     byte-identical to unscheduled ones.
//
// The engine's two-phase API (engine.Prepare / Execute / Commit over
// exec.Plan) is what makes the coalescing sound: admission and budget
// reservation happen under the engine lock per session, the shared scan
// happens outside every engine lock, and commits re-serialize through
// each engine exactly as in the single-phase path, leaving Definition 6.1
// and crash recovery untouched.
package sched

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/translate"
	"repro/internal/workload"
)

// ErrQueueFull rejects a request because the dataset's queue (or the
// session's slice of it) is at capacity. The server maps it to HTTP 429
// with a Retry-After hint; clients should back off and retry.
var ErrQueueFull = errors.New("sched: dataset queue full")

// ErrShutdown rejects a request because the scheduler is draining or
// closed. Queued-but-unstarted requests receive it during shutdown so
// nothing is silently dropped between accept and execution.
var ErrShutdown = errors.New("sched: scheduler shutting down")

// Config tunes the scheduler.
type Config struct {
	// QueueDepth bounds the pending requests per dataset; <= 0 means
	// DefaultQueueDepth.
	QueueDepth int
	// MaxPerSession bounds one session's share of a dataset queue; <= 0
	// means QueueDepth/4 (at least 1). It keeps one analyst from filling
	// the whole queue before fairness at dispatch can help.
	MaxPerSession int
	// Workers is the number of concurrent batch executors per dataset;
	// <= 0 means DefaultWorkers. More workers overlap mechanism execution
	// across batches; fewer coalesce larger batches.
	Workers int
	// MaxBatch caps how many requests (each from a distinct session) one
	// batch coalesces; <= 0 means DefaultMaxBatch.
	MaxBatch int
	// RetryAfter is the backoff hint the server attaches to queue-full
	// rejections; <= 0 means DefaultRetryAfter.
	RetryAfter time.Duration
	// GatherDelay is how long a worker waits for stragglers before
	// dispatching a batch that covers fewer sessions than are currently
	// active on the dataset; <= 0 means DefaultGatherDelay. It only
	// applies when more active sessions exist than the candidate batch
	// covers — a lone analyst is never delayed — and trades that bounded
	// latency for the coalescing that makes shared scans possible (an
	// eager worker would otherwise dequeue every request the moment it
	// arrives and batches would never form).
	GatherDelay time.Duration
	// Metrics, when set, receives the scheduler's observability series:
	// queue depth and batch sizes per dataset, queue-wait, per-mechanism
	// latency and budget-spend histograms, and outcome counters.
	Metrics *metrics.Registry
}

// Defaults for Config's zero values. The default worker count adapts to
// the machine: extra workers only help when they can run batches on
// spare CPUs; on a small box they would just split (and shrink) batches.
const (
	DefaultQueueDepth  = 256
	DefaultMaxBatch    = 32
	DefaultRetryAfter  = time.Second
	DefaultGatherDelay = 200 * time.Microsecond
)

// DefaultWorkers returns the per-dataset worker count for Config.Workers
// <= 0: two batch executors when the CPUs are there, one otherwise.
func DefaultWorkers() int {
	return min(2, max(1, runtime.GOMAXPROCS(0)))
}

// sessionIdleRetention is how long an emptied session's queue entry (and
// with it the session's claim to being "active") survives; it bounds the
// sessions map while keeping steady-state traffic counted for the
// gather-delay decision.
const sessionIdleRetention = 100 * time.Millisecond

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.MaxPerSession <= 0 {
		c.MaxPerSession = max(1, c.QueueDepth/4)
	}
	if c.Workers <= 0 {
		c.Workers = DefaultWorkers()
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = DefaultRetryAfter
	}
	if c.GatherDelay <= 0 {
		c.GatherDelay = DefaultGatherDelay
	}
	return c
}

// Scheduler owns one queue + worker pool per dataset. Datasets appear
// lazily on first use and live until Close.
type Scheduler struct {
	cfg Config

	mu       sync.Mutex
	queues   map[string]*dsQueue
	draining bool
	wg       sync.WaitGroup

	mechMu  sync.Mutex
	mechLat map[string]*metrics.Histogram
}

// New returns a scheduler with the given configuration.
func New(cfg Config) *Scheduler {
	return &Scheduler{
		cfg:     cfg.withDefaults(),
		queues:  make(map[string]*dsQueue),
		mechLat: make(map[string]*metrics.Histogram),
	}
}

// RetryAfter returns the backoff hint for queue-full rejections.
func (s *Scheduler) RetryAfter() time.Duration { return s.cfg.RetryAfter }

// Capacity returns the per-dataset queue bound — the denominator the
// readiness endpoint uses to judge saturation.
func (s *Scheduler) Capacity() int { return s.cfg.QueueDepth }

// QueueDepth returns the number of admitted-but-undispatched requests on
// one dataset's queue — the number a 429 body reports so a backing-off
// client can judge how congested the dataset is. Unknown datasets (no
// queue yet) report 0.
func (s *Scheduler) QueueDepth(dataset string) int {
	s.mu.Lock()
	dq := s.queues[dataset]
	s.mu.Unlock()
	if dq == nil {
		return 0
	}
	dq.mu.Lock()
	defer dq.mu.Unlock()
	return dq.pending
}

// request is one queued query plus its completion channel.
type request struct {
	ctx      context.Context
	session  string
	eng      *engine.Engine
	q        *query.Query
	enqueued time.Time
	done     chan result
}

type result struct {
	ans *engine.Answer
	err error
}

// sessQueue is one session's FIFO within a dataset queue. busy marks a
// request from this session as dispatched-but-unfinished; the next one
// is withheld until release, which keeps each session's engine
// interactions sequential and in arrival order (the equivalence
// guarantee with direct Ask). emptySince, when nonzero, stamps when the
// queue drained; entries linger for sessionIdleRetention so steady
// traffic keeps the session counted as active.
type sessQueue struct {
	reqs       []*request
	busy       bool
	emptySince time.Time
}

// dsQueue is one dataset's bounded queue with per-session fairness.
type dsQueue struct {
	name string
	cfg  Config

	mu       sync.Mutex
	cond     sync.Cond
	sessions map[string]*sessQueue
	rr       []string // round-robin ring of session ids
	rrStart  int
	pending  int
	closed   bool

	depth     *metrics.Gauge              // nil when metrics are off
	batchSize *metrics.Histogram          // idem
	waitTime  *metrics.Histogram          // idem
	spend     *metrics.Histogram          // idem
	outcomes  map[string]*metrics.Counter // idem; keyed by fixed outcome set
	scanBytes *metrics.Counter            // idem; column bytes read by batched scans
	scanRows  *metrics.Counter            // idem; rows scanned by batched scans
	fallbacks map[string]*metrics.Counter // idem; workloads evaluated outside the scan kernel, by reason
	projected map[string]*metrics.Counter // idem; kernel workloads by projection outcome
	projBytes *metrics.Gauge              // idem; bytes of the projections the table holds

	// Cold-column planner state: colLast[pos] is the batch sequence at
	// which a batched scan last planned schema position pos. A column
	// unplanned for coldAfterBatches consecutive batches gets a DONTNEED
	// release (dataset.Table.ReleaseColumns) and drops from the map until
	// a scan plans it again. colMu guards both (two workers can finish
	// batches concurrently).
	colMu    sync.Mutex
	colLast  map[int]uint64
	batchSeq uint64
}

func (s *Scheduler) newQueue(name string) *dsQueue {
	q := &dsQueue{name: name, cfg: s.cfg, sessions: make(map[string]*sessQueue)}
	q.cond.L = &q.mu
	if m := s.cfg.Metrics; m != nil {
		q.depth = m.Gauge("apex_sched_queue_depth",
			"Requests queued (admitted, not yet dispatched) per dataset.",
			metrics.L("dataset", name))
		q.batchSize = m.Histogram("apex_sched_batch_size",
			"Requests coalesced into one scheduler batch.",
			[]float64{1, 2, 4, 8, 16, 32, 64}, metrics.L("dataset", name))
		q.waitTime = m.Histogram("apex_sched_queue_wait_seconds",
			"Time from admission to dispatch.",
			metrics.ExpBuckets(1e-5, 10, 8), metrics.L("dataset", name))
		q.spend = m.Histogram("apex_budget_spend_epsilon",
			"Actual privacy loss charged per answered query.",
			[]float64{1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 2, 5, 10},
			metrics.L("dataset", name))
		q.outcomes = make(map[string]*metrics.Counter)
		for _, o := range []string{"answered", "denied", "canceled", "rejected", "error"} {
			q.outcomes[o] = m.Counter("apex_sched_requests_total",
				"Scheduled requests by outcome.",
				metrics.L("dataset", name), metrics.L("outcome", o))
		}
		q.scanBytes = m.Counter("apex_scan_bytes_total",
			"Storage bytes read by batched noise-free scans (packed words for v2 columns; a projection's lanes and weights when it answers).",
			metrics.L("dataset", name))
		q.scanRows = m.Counter("apex_scan_rows_total",
			"Rows classified by batched noise-free scans, per column read (table rows for a column pass, a projection's rows when it answers).",
			metrics.L("dataset", name))
		q.fallbacks = make(map[string]*metrics.Counter)
		for _, r := range workload.FallbackReasons {
			q.fallbacks[r] = m.Counter("apex_scan_fallback_total",
				"Workloads a batched scan evaluated outside the one-pass-per-column kernel, by reason.",
				metrics.L("dataset", name), metrics.L("reason", r))
		}
		q.projected = make(map[string]*metrics.Counter)
		for _, o := range dataset.ProjectionOutcomes {
			q.projected[o] = m.Counter("apex_scan_projection_total",
				"Workloads the scan kernel evaluated, by projection outcome: answered by a held projection of their column set (hit), by one they built first (build), or over the table's rows because the set has none (ineligible).",
				metrics.L("dataset", name), metrics.L("outcome", o))
		}
		q.projBytes = m.Gauge("apex_scan_projection_bytes",
			"Bytes of the column-set projections the dataset's table holds (bounded by a quarter of its column storage).",
			metrics.L("dataset", name))
	}
	return q
}

// coldAfterBatches is how many consecutive batches a column may go
// unplanned before the planner releases its pages. High enough that a
// briefly idle attribute keeps its residency across a bursty workload,
// low enough that a genuinely abandoned column stops competing with hot
// ones for page cache.
const coldAfterBatches = 64

// noteColumns advances the cold-column planner by one batch: the columns
// whose storage the batch read (none, when projections answered all of
// it) become hot, and any tracked column that has gone coldAfterBatches
// batches without being read is released — which is also how the pages a
// projection build walked are dropped once the projection serves the
// column set.
func (d *dsQueue) noteColumns(t *dataset.Table, cols []int) {
	d.colMu.Lock()
	defer d.colMu.Unlock()
	d.batchSeq++
	if d.colLast == nil {
		d.colLast = make(map[int]uint64)
	}
	for _, pos := range cols {
		d.colLast[pos] = d.batchSeq
	}
	var cold []int
	for pos, last := range d.colLast {
		if d.batchSeq-last >= coldAfterBatches {
			cold = append(cold, pos)
			delete(d.colLast, pos)
		}
	}
	if len(cold) > 0 {
		sort.Ints(cold)
		t.ReleaseColumns(cold)
	}
}

// Ask runs one query through the dataset's scheduler and blocks until it
// is answered, denied, rejected or the context is canceled. Engine
// outcomes (including engine.ErrDenied) pass through unchanged, so
// callers handle them exactly as for a direct engine.Ask.
func (s *Scheduler) Ask(ctx context.Context, dataset, session string, eng *engine.Engine, q *query.Query) (*engine.Answer, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrShutdown
	}
	dq, ok := s.queues[dataset]
	if !ok {
		dq = s.newQueue(dataset)
		s.queues[dataset] = dq
		for i := 0; i < s.cfg.Workers; i++ {
			s.wg.Add(1)
			go s.worker(dq)
		}
	}
	s.mu.Unlock()

	req := &request{
		ctx:      ctx,
		session:  session,
		eng:      eng,
		q:        q,
		enqueued: time.Now(),
		done:     make(chan result, 1),
	}
	if err := dq.enqueue(req); err != nil {
		s.countOutcome(dq, "rejected")
		return nil, err
	}
	select {
	case r := <-req.done:
		return r.ans, r.err
	case <-ctx.Done():
		// The slot stays queued; the worker sees the canceled context
		// before Prepare (or before Execute, if cancellation lands after
		// admission) and abandons the request without charging.
		return nil, ctx.Err()
	}
}

// enqueue admits a request or rejects it with backpressure.
func (d *dsQueue) enqueue(req *request) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrShutdown
	}
	if d.pending >= d.cfg.QueueDepth {
		return ErrQueueFull
	}
	sq, ok := d.sessions[req.session]
	if !ok {
		sq = &sessQueue{}
		d.sessions[req.session] = sq
		d.rr = append(d.rr, req.session)
	}
	if len(sq.reqs) >= d.cfg.MaxPerSession {
		return ErrQueueFull
	}
	sq.reqs = append(sq.reqs, req)
	sq.emptySince = time.Time{}
	d.pending++
	if d.depth != nil {
		d.depth.Set(float64(d.pending))
	}
	d.cond.Signal()
	return nil
}

// take blocks until at least one request is dispatchable, then collects
// a batch: up to MaxBatch requests, at most one per session, round-robin
// across sessions. When the candidate batch covers fewer sessions than
// are currently active, the worker waits GatherDelay once for stragglers
// — the coalescing window that lets concurrent analysts share one
// columnar pass (an eager dequeue would hand every request its own
// batch). The taken sessions are marked busy until release. A nil batch
// means the queue is closed and the worker should exit.
func (d *dsQueue) take() []*request {
	d.mu.Lock()
	defer d.mu.Unlock()
	gathered := false
	for {
		if d.closed {
			return nil
		}
		ready := 0
		for _, sq := range d.sessions {
			if !sq.busy && len(sq.reqs) > 0 {
				ready++
			}
		}
		if ready == 0 {
			d.cond.Wait()
			continue
		}
		if !gathered && ready < d.cfg.MaxBatch && ready < len(d.sessions) {
			// More sessions are active than have a request ready: give
			// the stragglers one bounded window to coalesce.
			gathered = true
			d.mu.Unlock()
			time.Sleep(d.cfg.GatherDelay)
			d.mu.Lock()
			continue
		}
		var batch []*request
		for off := 0; off < len(d.rr) && len(batch) < d.cfg.MaxBatch; off++ {
			id := d.rr[(d.rrStart+off)%len(d.rr)]
			sq := d.sessions[id]
			if sq == nil || sq.busy || len(sq.reqs) == 0 {
				continue
			}
			req := sq.reqs[0]
			sq.reqs = sq.reqs[1:]
			sq.busy = true
			d.pending--
			batch = append(batch, req)
		}
		if len(batch) == 0 {
			// Raced another worker for the ready requests; start over.
			gathered = false
			d.cond.Wait()
			continue
		}
		d.rrStart = (d.rrStart + 1) % len(d.rr)
		if d.depth != nil {
			d.depth.Set(float64(d.pending))
		}
		if d.batchSize != nil {
			d.batchSize.Observe(float64(len(batch)))
		}
		if d.waitTime != nil {
			now := time.Now()
			for _, r := range batch {
				d.waitTime.Observe(now.Sub(r.enqueued).Seconds())
			}
		}
		return batch
	}
}

// release unmarks the batch's sessions, stamps the ones that emptied,
// prunes entries idle beyond the retention window, and wakes dispatchers
// blocked on the next requests.
func (d *dsQueue) release(batch []*request) {
	now := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, req := range batch {
		if sq := d.sessions[req.session]; sq != nil {
			sq.busy = false
			if len(sq.reqs) == 0 {
				sq.emptySince = now
			}
		}
	}
	prune := false
	for id, sq := range d.sessions {
		if !sq.busy && len(sq.reqs) == 0 && !sq.emptySince.IsZero() && now.Sub(sq.emptySince) > sessionIdleRetention {
			delete(d.sessions, id)
			prune = true
		}
	}
	if prune {
		kept := d.rr[:0]
		for _, id := range d.rr {
			if _, ok := d.sessions[id]; ok {
				kept = append(kept, id)
			}
		}
		d.rr = kept
		if len(d.rr) > 0 {
			d.rrStart %= len(d.rr)
		} else {
			d.rrStart = 0
		}
	}
	d.cond.Broadcast()
}

// worker is one batch executor: take a batch, run its three phases,
// release the sessions, repeat until the queue closes.
func (s *Scheduler) worker(d *dsQueue) {
	defer s.wg.Done()
	for {
		batch := d.take()
		if batch == nil {
			return
		}
		s.runBatch(d, batch)
		d.release(batch)
	}
}

// runBatch drives one batch through translate-warm → admit → warm →
// execute → commit.
func (s *Scheduler) runBatch(d *dsQueue, batch []*request) {
	// Phase 0: batch-warm the Monte-Carlo translation plans. Translation
	// happens inside Prepare (admission needs the privacy cost), so this
	// warm pass must precede admission — unlike the noise-free scan warm
	// below, which precedes Execute. Grouping by source means one
	// fanned-out sampling pass per dataset cache, with every fresh
	// workload in the batch sharing the drawn sample matrix; already-
	// cached workloads cost a lookup. Like the scan pass, the shared span
	// lands on every participating request's trace.
	warmStart := time.Now()
	tlGroups := make(map[translate.Source][]translate.Item)
	var warmReqs []*request
	for _, req := range batch {
		if req.ctx.Err() != nil {
			continue
		}
		needs := req.eng.TranslationNeeds(req.q)
		if len(needs) == 0 {
			continue
		}
		for _, n := range needs {
			tlGroups[n.Source] = append(tlGroups[n.Source], n.Item)
		}
		warmReqs = append(warmReqs, req)
	}
	if len(tlGroups) > 0 {
		var translated int
		for src, items := range tlGroups {
			translated += src.TranslateBatch(items)
		}
		warmEnd := time.Now()
		for _, req := range warmReqs {
			if sp := obs.RecordSpan(req.ctx, "translate_warm", warmStart, warmEnd); sp != nil {
				sp.Set("batch_size", len(warmReqs))
				sp.Set("computed", translated)
			}
		}
	}

	// Phase 1: admission, per engine, under each engine's own lock. Reuse
	// hits and denials complete here.
	type flight struct {
		req  *request
		plan *exec.Plan
	}
	type group struct {
		table *dataset.Table
		items []workload.BatchItem
	}
	var flights []flight
	groups := make(map[*workload.TransformCache]*group)
	dispatched := time.Now()
	for _, req := range batch {
		// The queue span is retroactive: its interval elapsed before any
		// worker touched the request, so it is recorded at dispatch onto
		// the request's trace (whose root span has been open since the
		// HTTP handler admitted it).
		if sp := obs.RecordSpan(req.ctx, "queue", req.enqueued, dispatched); sp != nil {
			sp.Set("batch_size", len(batch))
		}
		if err := req.ctx.Err(); err != nil {
			req.done <- result{err: err}
			s.countOutcome(d, "canceled")
			continue
		}
		plan, ans, err := req.eng.Prepare(req.ctx, req.q)
		if plan == nil {
			req.done <- result{ans: ans, err: err}
			s.countOutcome(d, outcomeOf(ans, err))
			continue
		}
		flights = append(flights, flight{req: req, plan: plan})
		if plan.Needs.Histogram || plan.Needs.Truth {
			c := req.eng.Transforms()
			g := groups[c]
			if g == nil {
				g = &group{table: req.eng.Table()}
				groups[c] = g
			}
			g.items = append(g.items, workload.BatchItem{
				Tr:        plan.Transformed,
				Histogram: plan.Needs.Histogram,
				Truth:     plan.Needs.Truth,
			})
		}
	}
	if len(flights) == 0 {
		return
	}

	// Phase 2: one grouped, deduplicated columnar pass warms every
	// plan's noise-free evaluations. All engines of a dataset share one
	// transformation cache and one table; group defensively anyway so a
	// mixed batch can never warm through the wrong cache. EvaluateBatch
	// derives the batch's planned column set from its deduplicated
	// predicates and prefetches only those byte ranges (column-granular
	// madvise on an mmap-backed table, a no-op for heap tables); the
	// returned stats feed the scan-bandwidth and projection counters and
	// the cold-column release planner (advanced by every batch that
	// evaluated a workload, whether or not it read a column). The pass is
	// shared, so its span lands on every flight's trace with the membership
	// that explains the shared duration.
	scanStart := time.Now()
	var warmed int
	var scanBytes, scanRows int64
	for c, g := range groups {
		st := c.EvaluateBatch(g.table, g.items)
		warmed += len(g.items)
		scanBytes += st.ScanBytes
		scanRows += st.Rows
		if st.Workloads > 0 {
			d.noteColumns(g.table, st.Columns)
		}
		for reason, n := range st.Fallbacks {
			if c := d.fallbacks[reason]; c != nil {
				c.Add(float64(n))
			}
		}
		for outcome, n := range st.Projections {
			if c := d.projected[outcome]; c != nil {
				c.Add(float64(n))
			}
		}
		if d.projBytes != nil {
			d.projBytes.Set(float64(g.table.ProjectionBytes()))
		}
	}
	if d.scanBytes != nil && scanBytes > 0 {
		d.scanBytes.Add(float64(scanBytes))
		d.scanRows.Add(float64(scanRows))
	}
	if warmed > 0 {
		scanEnd := time.Now()
		// Attribute the shared scan's traffic across the batch for the
		// analytics plane: equal integer shares with the remainder spread
		// one byte at a time, so the per-request scan_share_bytes attrs
		// sum exactly to the BatchStats total the bandwidth counters saw
		// (and a batch of one is attributed its exact BatchStats figure).
		share := scanBytes / int64(len(flights))
		rem := scanBytes % int64(len(flights))
		for i, f := range flights {
			if sp := obs.RecordSpan(f.req.ctx, "scan", scanStart, scanEnd); sp != nil {
				sp.Set("batch_size", len(flights))
				sp.Set("warmed", warmed)
				sp.Set("scan_bytes", int(scanBytes))
				b := share
				if int64(i) < rem {
					b++
				}
				sp.Set("scan_share_bytes", int(b))
			}
		}
	}

	// Phase 3: execute and commit each plan in batch order. Mechanisms
	// mostly read the warmed memos, so this tail is cheap; each commit
	// re-serializes through its session's engine exactly like direct Ask.
	for _, f := range flights {
		if err := f.req.ctx.Err(); err != nil {
			// Canceled after admission but before the mechanism ran:
			// abandon exactly as direct AskContext does in this window —
			// release the reservation, charge and log nothing.
			f.req.eng.Abort(f.plan)
			s.countOutcome(d, "canceled")
			f.req.done <- result{err: err}
			continue
		}
		out := f.req.eng.Execute(f.req.ctx, f.plan)
		if err := f.req.ctx.Err(); err != nil {
			// Canceled while the mechanism ran: the caller is gone and
			// the noisy result has reached no one, so discarding it
			// uncommitted is privacy-sound — abort instead of charging
			// for an answer nobody will ever see. (Cancellation landing
			// inside Commit itself still charges; the transcript then
			// holds the paid answer.)
			f.req.eng.Abort(f.plan)
			s.countOutcome(d, "canceled")
			f.req.done <- result{err: err}
			continue
		}
		ans, err := f.req.eng.Commit(f.req.ctx, f.plan, out)
		if ans != nil {
			s.observeAnswer(d, ans, out.Elapsed)
		}
		s.countOutcome(d, outcomeOf(ans, err))
		f.req.done <- result{ans: ans, err: err}
	}
}

// Drain stops intake (new Asks fail with ErrShutdown) and waits until
// every queued request has been executed or ctx expires. Pair with Close
// to reject whatever a timed-out drain left behind.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	queues := make([]*dsQueue, 0, len(s.queues))
	for _, q := range s.queues {
		queues = append(queues, q)
	}
	s.mu.Unlock()

	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		idle := true
		for _, q := range queues {
			q.mu.Lock()
			busy := q.pending > 0
			for _, sq := range q.sessions {
				busy = busy || sq.busy
			}
			q.mu.Unlock()
			if busy {
				idle = false
				break
			}
		}
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Close stops intake, rejects every queued-but-unstarted request with
// ErrShutdown (no request is silently dropped between accept and
// execution), lets in-flight batches finish, and stops the workers.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.draining = true
	queues := make([]*dsQueue, 0, len(s.queues))
	for _, q := range s.queues {
		queues = append(queues, q)
	}
	s.mu.Unlock()

	for _, q := range queues {
		q.mu.Lock()
		q.closed = true
		var orphans []*request
		for _, sq := range q.sessions {
			orphans = append(orphans, sq.reqs...)
			sq.reqs = nil
		}
		q.pending = 0
		if q.depth != nil {
			q.depth.Set(0)
		}
		q.cond.Broadcast()
		q.mu.Unlock()
		for _, req := range orphans {
			req.done <- result{err: ErrShutdown}
			s.countOutcome(q, "rejected")
		}
	}
	s.wg.Wait()
}

// observeAnswer records the per-mechanism latency and the budget spend.
func (s *Scheduler) observeAnswer(d *dsQueue, ans *engine.Answer, elapsed time.Duration) {
	m := s.cfg.Metrics
	if m == nil {
		return
	}
	s.mechMu.Lock()
	h, ok := s.mechLat[ans.Mechanism]
	if !ok {
		h = m.Histogram("apex_mechanism_latency_seconds",
			"Mechanism execution time (columnar scan + noise draw).",
			metrics.ExpBuckets(1e-5, 10, 8), metrics.L("mechanism", ans.Mechanism))
		s.mechLat[ans.Mechanism] = h
	}
	s.mechMu.Unlock()
	h.Observe(elapsed.Seconds())
	d.spend.Observe(ans.Epsilon)
}

// countOutcome bumps the per-dataset outcome counter (pre-resolved in
// newQueue; registry lookups stay off the per-request hot path).
func (s *Scheduler) countOutcome(d *dsQueue, outcome string) {
	if c := d.outcomes[outcome]; c != nil {
		c.Inc()
	}
}

// outcomeOf classifies a completed request for the outcome counter.
func outcomeOf(ans *engine.Answer, err error) string {
	switch {
	case err == nil && ans != nil:
		return "answered"
	case errors.Is(err, engine.ErrDenied):
		return "denied"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	default:
		return "error"
	}
}
