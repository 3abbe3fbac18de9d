package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analytics"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/sched"
	"repro/internal/scrub"
	"repro/internal/store"
)

// Config holds the owner-side policy knobs for one server.
type Config struct {
	// MaxBudget caps any single session's budget B; 0 means uncapped.
	MaxBudget float64
	// MaxSessions bounds live sessions; 0 means unlimited.
	MaxSessions int
	// AllowSeeds lets analysts fix their session's RNG seed. Off by
	// default: an analyst who knows the seed can replay the noise and
	// recover exact counts, so only enable it for trusted analysts or
	// reproducible experiments.
	AllowSeeds bool
	// Store, when set, makes the server durable: dataset registrations
	// persist to the catalog and every session commit is fsynced into a
	// per-session write-ahead log before the answer is released. Attach
	// the same store to the registry and run RecoverSessions at startup.
	Store *store.Store
	// Sched tunes the per-dataset execution scheduler every query runs
	// through: queue depth (backpressure threshold), workers and batch
	// size per dataset, and the Retry-After hint for 429 rejections.
	// Zero values take the scheduler defaults. Sched.Metrics is
	// overwritten with the server's registry.
	Sched sched.Config
	// Metrics, when set, is the registry /metrics serves; nil builds a
	// private one.
	Metrics *metrics.Registry
	// Trace tunes request tracing (the /v1/debug/traces ring, per-phase
	// histograms and the slow-query log). The zero value traces with
	// defaults; set Trace.Disable to turn span recording off.
	Trace TraceConfig
	// Scrub tunes the background verification plane. The scrubber itself
	// is always constructed (its checks also run on demand and its metric
	// families must exist from the first scrape); the paced background
	// loop only starts when Scrub.Interval > 0.
	Scrub ScrubConfig
	// Analytics tunes the workload analytics plane: per-request cost
	// attribution and heavy hitters (/v1/debug/top), the in-process
	// time-series ring (/v1/debug/timeseries) and the anomaly flight
	// recorder. The zero value enables attribution with defaults; the
	// recorder stays off until Analytics.Recorder.Dir is set.
	Analytics AnalyticsConfig
}

// ScrubConfig tunes the continuous verification plane.
type ScrubConfig struct {
	// Interval is the pause between scrub cycles; 0 disables the
	// background loop (cycles can still be driven via Scrubber().RunCycle).
	Interval time.Duration
	// ReadBytesPerSec rate-limits verification reads so scrubbing never
	// competes with query service for disk bandwidth; 0 means unpaced.
	ReadBytesPerSec int64
	// IncidentLog receives one structured JSON line per integrity
	// violation; nil means os.Stderr.
	IncidentLog io.Writer
}

// Server wires the registry, session manager, per-dataset scheduler,
// metrics registry and request tracer to an HTTP API.
type Server struct {
	registry   *Registry
	sessions   *SessionManager
	sched      *sched.Scheduler
	metrics    *metrics.Registry
	tracer     *obs.Tracer
	allowSeeds bool

	// Transcript reads (transcript and audit endpoints): latency of one
	// session's read-back, and reads the durable log could not serve.
	transcriptRead     *metrics.Histogram
	transcriptReadErrs *metrics.Counter

	// Health plane state.
	st       *store.Store // nil on non-durable servers
	scrubber *scrub.Scrubber
	budget   *budgetTracker
	started  time.Time
	ready    atomic.Bool

	// Workload analytics plane (all nil when Analytics.Disable or, for
	// the collector, when tracing is off — attribution reads finished
	// traces).
	analytics  *analytics.Collector
	timeseries *analytics.Timeseries
	recorder   *analytics.FlightRecorder

	// Cached WAL-flusher fsync probe (readyz would otherwise fsync the
	// data volume on every poll).
	probeMu  sync.Mutex
	probeAt  time.Time
	probeDur time.Duration
	probeErr error
}

// New builds a server over reg with the given policy.
func New(reg *Registry, cfg Config) *Server {
	sessions := NewSessionManager(cfg.MaxBudget, cfg.MaxSessions)
	if cfg.Store != nil {
		sessions.AttachStore(cfg.Store)
	}
	reg2 := cfg.Metrics
	if reg2 == nil {
		reg2 = metrics.NewRegistry()
	}
	schedCfg := cfg.Sched
	schedCfg.Metrics = reg2
	registerStorageMetrics(reg, reg2)
	registerTranslateMetrics(reg, reg2)
	// The cost collector attributes finished traces, so it exists exactly
	// when tracing does (and analytics is not disabled); it hooks the
	// tracer's OnFinish on the request goroutine.
	var collector *analytics.Collector
	if !cfg.Trace.Disable && !cfg.Analytics.Disable {
		collector = analytics.NewCollector(analytics.Config{})
	}
	var tracer *obs.Tracer
	if !cfg.Trace.Disable {
		tracer = obs.New(obs.Config{
			Metrics:       reg2,
			SlowThreshold: cfg.Trace.SlowQuery,
			SlowWriter:    cfg.Trace.SlowWriter,
			OnFinish:      collector.Observe, // nil-safe on a nil collector
		})
	}
	s := &Server{
		registry:   reg,
		sessions:   sessions,
		sched:      sched.New(schedCfg),
		metrics:    reg2,
		tracer:     tracer,
		allowSeeds: cfg.AllowSeeds,
		st:         cfg.Store,
		budget:     newBudgetTracker(budgetWindow),
		started:    time.Now(),
		analytics:  collector,
		transcriptRead: reg2.Histogram("apex_transcript_read_seconds",
			"Time to read one session's transcript entries back (from its WAL on a durable server) and render them.",
			metrics.ExpBuckets(1e-5, 10, 8)),
		transcriptReadErrs: reg2.Counter("apex_transcript_read_errors_total",
			"Transcript reads that failed because the session's durable log could not be read back."),
	}
	if collector != nil {
		collector.Publish(reg2, reg.Names)
	}
	// A non-durable server has nothing to recover and is born ready;
	// a durable one becomes ready when RecoverSessions finishes.
	s.ready.Store(cfg.Store == nil)
	// Construct the scrubber unconditionally so every verification metric
	// family exists from the first scrape; the paced background loop only
	// starts when an interval is configured.
	s.scrubber = scrub.New(s.scrubConfig(cfg.Scrub))
	if cfg.Scrub.Interval > 0 {
		s.scrubber.Start()
	}
	s.registerHealthMetrics(reg2)

	if !cfg.Analytics.Disable {
		// Flight recorder: only live when an incident directory is
		// configured (NewFlightRecorder returns a nil no-op otherwise).
		rcfg := cfg.Analytics.Recorder
		rcfg.Metrics = reg2
		rcfg.P99 = func() (time.Duration, bool) {
			sec, ok := s.tracer.PhaseQuantile("total", 0.99)
			return time.Duration(sec * float64(time.Second)), ok
		}
		rcfg.QueueDepth = s.maxQueueDepth
		rcfg.Traces = func() any {
			if s.tracer == nil {
				return []obs.TraceView{}
			}
			return s.tracer.Traces(obs.Filter{Limit: defaultTraceLimit})
		}
		s.recorder = analytics.NewFlightRecorder(rcfg)

		// Time-series ring: a 1 Hz (by default) self-snapshot of the
		// gauges and quantiles an operator would otherwise need an
		// external scraper to keep history for. The flight recorder's
		// trigger checks ride the same tick.
		ts := analytics.NewTimeseries(cfg.Analytics.TimeseriesWindow, cfg.Analytics.TimeseriesInterval)
		ts.AddSource(func(put func(string, float64)) {
			if sec, ok := s.tracer.PhaseQuantile("total", 0.50); ok {
				put("latency_p50_ms", sec*1e3)
			}
			if sec, ok := s.tracer.PhaseQuantile("total", 0.99); ok {
				put("latency_p99_ms", sec*1e3)
			}
			if sec, ok := s.tracer.PhaseQuantile("queue", 0.99); ok {
				put("queue_wait_p99_ms", sec*1e3)
			}
			if sec, ok := s.tracer.PhaseQuantile("execute", 0.99); ok {
				put("execute_p99_ms", sec*1e3)
			}
		})
		ts.AddSource(func(put func(string, float64)) {
			put("queue_depth_max", float64(s.maxQueueDepth()))
			put("sessions", float64(len(s.sessions.List())))
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			put("goroutines", float64(runtime.NumGoroutine()))
			put("heap_bytes", float64(ms.HeapAlloc))
		})
		ts.AddSource(func(put func(string, float64)) {
			total := s.analytics.Total() // zero-valued on a nil collector
			put("requests_total", float64(total.Requests))
			put("cpu_seconds_total", float64(total.CPUNanos)/1e9)
			put("scan_bytes_total", float64(total.ScanBytes))
			put("epsilon_total", total.Epsilon)
			put("denied_total", float64(total.Denied))
		})
		ts.OnTick(s.recorder.Check) // nil-safe on a nil recorder
		ts.Start()
		s.timeseries = ts
	}
	return s
}

// RecoverSessions replays every live session log in st and re-admits the
// sessions: transcripts are decoded, re-validated against Definition 6.1,
// and the engines resume with exactly the budget left when the previous
// process stopped. Logs with a torn tail are repaired to their last valid
// frame first; logs that fail validation are quarantined rather than
// served; sessions whose dataset is not registered are left on disk and
// retried next start. skipped describes everything not restored.
func (s *Server) RecoverSessions(st *store.Store) (restored int, skipped []string, err error) {
	recs, skipped, err := st.RecoverSessions()
	if err != nil {
		return 0, skipped, err
	}
	for i := range recs {
		rec := &recs[i]
		if rec.TruncatedBytes > 0 {
			log.Printf("server: session %s: dropped %d corrupt trailing bytes, resuming at last valid frame",
				rec.Meta.ID, rec.TruncatedBytes)
		}
		ds, ok := s.registry.Dataset(rec.Meta.Dataset)
		if !ok {
			skipped = append(skipped, fmt.Sprintf("%s: dataset %q not registered", rec.Meta.ID, rec.Meta.Dataset))
			if cerr := rec.Log.Close(); cerr != nil {
				log.Printf("server: session %s: %v", rec.Meta.ID, cerr)
			}
			continue
		}
		if _, rerr := s.sessions.Restore(ds, rec); rerr != nil {
			// The frames are intact but the transcript does not hold up
			// (or the meta is inconsistent): refuse to serve it.
			skipped = append(skipped, fmt.Sprintf("%s: %v", rec.Meta.ID, rerr))
			if qerr := rec.Log.Quarantine(); qerr != nil {
				log.Printf("server: session %s: quarantine: %v", rec.Meta.ID, qerr)
			}
			continue
		}
		restored++
	}
	// Recovery is done: the readiness gate opens even when some sessions
	// were skipped — those are quarantined or deferred, not in limbo.
	s.MarkReady()
	return restored, skipped, nil
}

// Shutdown stops the scheduler — completing every queued-but-unstarted
// request with a rejection so nothing accepted is silently dropped — and
// then flushes every durable session log to disk. Call after the HTTP
// listener has drained in-flight requests: a clean drain leaves the
// queues empty (handlers block until their queries execute), so the
// scheduler close only rejects work when the drain timed out.
func (s *Server) Shutdown() error {
	if s.timeseries != nil {
		s.timeseries.Stop()
	}
	s.scrubber.Stop()
	s.sched.Close()
	return s.sessions.Shutdown()
}

// Registry returns the server's dataset registry (the startup loader in
// cmd/apex-server registers datasets through it).
func (s *Server) Registry() *Registry { return s.registry }

// Sessions returns the server's session manager.
func (s *Server) Sessions() *SessionManager { return s.sessions }

// Metrics returns the server's metrics registry (served at /metrics).
func (s *Server) Metrics() *metrics.Registry { return s.metrics }

// Scheduler returns the per-dataset execution scheduler.
func (s *Server) Scheduler() *sched.Scheduler { return s.sched }

// Tracer returns the server's request tracer, nil when tracing is
// disabled.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Scrubber returns the background verification plane. Always non-nil;
// tests drive deterministic cycles through it with RunCycle.
func (s *Server) Scrubber() *scrub.Scrubber { return s.scrubber }

// Wire types. Every response is JSON; errors use ErrorResponse with a
// machine-readable code.

// ErrorResponse is the body of every non-2xx reply, including the mux's
// own 404/405 (the middleware rewrites those to this shape). TraceID is
// the request's trace ID — the same value echoed in the X-Request-ID
// response header — so an error can be correlated with its trace and
// slow-query log line. QueueDepth and RetryAfterSeconds are set on 429
// backpressure rejections: how congested the dataset's queue currently is
// and the server's backoff hint.
type ErrorResponse struct {
	Error             string `json:"error"`
	Code              string `json:"code"`
	TraceID           string `json:"trace_id,omitempty"`
	QueueDepth        *int   `json:"queue_depth,omitempty"`
	RetryAfterSeconds int    `json:"retry_after_seconds,omitempty"`
}

// Error codes.
const (
	CodeBadRequest       = "bad_request"        // malformed JSON or parameters
	CodeParseError       = "parse_error"        // query text failed to parse
	CodeNotFound         = "not_found"          // unknown dataset, session or endpoint
	CodeMethodNotAllowed = "method_not_allowed" // endpoint exists, method does not
	CodeConflict         = "conflict"           // duplicate dataset name
	CodePolicyDenied     = "policy_denied"      // owner policy (budget cap, session limit)
	CodeQueueFull        = "queue_full"         // dataset queue at capacity; retry after backoff
	CodeUnavailable      = "unavailable"        // server draining for shutdown
	CodeInternal         = "internal_error"     // unexpected engine failure
	// CodeTranscriptUnavailable: a durable session's log could not be read
	// back (truncated or damaged under the live session). Commits are
	// unaffected; the scrubber reports the log as a wal violation.
	CodeTranscriptUnavailable = "transcript_unavailable"
)

// DatasetInfo describes one registered dataset. Storage says where the
// serving table lives: "heap" or "mmap" (the column-store segment).
type DatasetInfo struct {
	Name    string          `json:"name"`
	Rows    int             `json:"rows"`
	Storage string          `json:"storage,omitempty"`
	Schema  *dataset.Schema `json:"schema,omitempty"`
}

// AddDatasetRequest registers a dataset through the owner endpoint: the
// public schema plus the sensitive rows as inline CSV (with header).
type AddDatasetRequest struct {
	Name   string          `json:"name"`
	Schema *dataset.Schema `json:"schema"`
	CSV    string          `json:"csv"`
}

// CreateSessionRequest opens an analyst session.
type CreateSessionRequest struct {
	Dataset string  `json:"dataset"`
	Budget  float64 `json:"budget"`
	// Mode is "optimistic" (default) or "pessimistic".
	Mode string `json:"mode,omitempty"`
	// Seed fixes the session's mechanism randomness for reproducible runs;
	// 0 (the default) draws an unpredictable seed. An analyst who knows
	// the seed can subtract the noise, so leave it 0 unless the analyst
	// is trusted.
	Seed int64 `json:"seed,omitempty"`
	// Reuse enables the §9 inferencer (free re-answers from cached counts).
	Reuse bool `json:"reuse,omitempty"`
}

// SessionInfo is the JSON view of one session's budget state.
type SessionInfo struct {
	ID        string  `json:"id"`
	Dataset   string  `json:"dataset"`
	Mode      string  `json:"mode"`
	Budget    float64 `json:"budget"`
	Spent     float64 `json:"spent"`
	Remaining float64 `json:"remaining"`
	Queries   int     `json:"queries"`
	Created   string  `json:"created"`
}

// QueryRequest carries one query in the paper's text syntax.
type QueryRequest struct {
	Query string `json:"query"`
}

// QueryResponse is the engine's reply: either a noisy answer or a denial,
// always with the session's updated budget state. TraceID identifies the
// request's trace (also echoed in the X-Request-ID header); the same ID
// is stamped on the transcript entry this interaction committed.
type QueryResponse struct {
	Denied  bool   `json:"denied"`
	Reason  string `json:"reason,omitempty"`
	TraceID string `json:"trace_id,omitempty"`

	Mechanism    string    `json:"mechanism,omitempty"`
	Epsilon      float64   `json:"epsilon"`
	EpsilonUpper float64   `json:"epsilon_upper"`
	Counts       []float64 `json:"counts,omitempty"`
	Selected     []bool    `json:"selected,omitempty"`
	Predicates   []string  `json:"predicates,omitempty"`

	Spent     float64 `json:"spent"`
	Remaining float64 `json:"remaining"`
}

// TranscriptEntry is one audit record (paper §6). Query is the rendered
// declarative text; external charges carry Label instead. TraceID and At
// are commit provenance: the request trace that committed the entry and
// when — present for entries committed through the server, absent for
// engine-direct history.
type TranscriptEntry struct {
	Index        int       `json:"index"`
	Query        string    `json:"query,omitempty"`
	Label        string    `json:"label,omitempty"`
	Denied       bool      `json:"denied"`
	Epsilon      float64   `json:"epsilon"`
	EpsilonUpper float64   `json:"epsilon_upper,omitempty"`
	Mechanism    string    `json:"mechanism,omitempty"`
	Counts       []float64 `json:"counts,omitempty"`
	Selected     []bool    `json:"selected,omitempty"`
	Predicates   []string  `json:"predicates,omitempty"`
	TraceID      string    `json:"trace_id,omitempty"`
	At           string    `json:"at,omitempty"` // RFC3339Nano commit time
}

// TranscriptResponse is the machine-readable session history, re-checked
// against the Definition 6.1 validity invariant at read time.
type TranscriptResponse struct {
	Session string            `json:"session"`
	Dataset string            `json:"dataset"`
	Budget  float64           `json:"budget"`
	Spent   float64           `json:"spent"`
	Valid   bool              `json:"valid"`
	Invalid string            `json:"invalid_reason,omitempty"`
	Entries []TranscriptEntry `json:"entries"`
}

// Handler returns the route table. Paths are versioned under /v1. The
// whole table sits behind the observability middleware: trace-ID
// assignment and echo, span recording, and JSON-shaped 404/405 bodies.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/healthz", s.handleLiveness)
	mux.HandleFunc("GET /v1/readyz", s.handleReadiness)
	mux.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	mux.HandleFunc("POST /v1/datasets", s.handleAddDataset)
	mux.HandleFunc("GET /v1/datasets/{name}", s.handleGetDataset)
	mux.HandleFunc("GET /v1/datasets/{name}/audit", s.handleAudit)
	mux.HandleFunc("GET /v1/datasets/{name}/budget", s.handleBudget)
	mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	mux.HandleFunc("GET /v1/sessions", s.handleListSessions)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleGetSession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleCloseSession)
	mux.HandleFunc("POST /v1/sessions/{id}/query", s.handleQuery)
	mux.HandleFunc("POST /v1/sessions/{id}/explain", s.handleExplain)
	mux.HandleFunc("GET /v1/sessions/{id}/transcript", s.handleTranscript)
	mux.HandleFunc("GET /v1/debug/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/debug/top", s.handleTop)
	mux.HandleFunc("GET /v1/debug/timeseries", s.handleTimeseries)
	mux.HandleFunc("GET /v1/debug/config", s.handleDebugConfig)
	mux.HandleFunc("PUT /v1/debug/config", s.handleDebugConfig)
	mux.Handle("GET /metrics", s.metrics.Handler())
	return s.withObs(mux)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	names := s.registry.Names()
	out := make([]DatasetInfo, 0, len(names))
	for _, name := range names {
		if d, ok := s.registry.Dataset(name); ok {
			out = append(out, DatasetInfo{Name: name, Rows: d.Table.Size(), Storage: d.Mode.String()})
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	d, ok := s.registry.Dataset(name)
	if !ok {
		writeError(w, r, http.StatusNotFound, CodeNotFound, fmt.Sprintf("unknown dataset %q", name))
		return
	}
	writeJSON(w, http.StatusOK, DatasetInfo{
		Name: name, Rows: d.Table.Size(), Storage: d.Mode.String(), Schema: d.Table.Schema(),
	})
}

func (s *Server) handleAddDataset(w http.ResponseWriter, r *http.Request) {
	var req AddDatasetRequest
	if !decodeJSONLimit(w, r, &req, maxDatasetBody) {
		return
	}
	if req.Schema == nil {
		writeError(w, r, http.StatusBadRequest, CodeBadRequest, "schema is required")
		return
	}
	table, err := s.registry.AddCSV(req.Name, req.Schema, []byte(req.CSV))
	if err != nil {
		status, code := http.StatusBadRequest, CodeBadRequest
		switch {
		case errors.Is(err, ErrDuplicateDataset):
			status, code = http.StatusConflict, CodeConflict
		case errors.Is(err, ErrStoreFailed):
			// The registration was rejected because it could not be made
			// durable; the detail stays in the server log.
			log.Printf("server: %v", err)
			writeError(w, r, http.StatusInternalServerError, CodeInternal, "dataset persistence failed")
			return
		}
		writeError(w, r, status, code, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, DatasetInfo{Name: req.Name, Rows: table.Size(), Schema: req.Schema})
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	ds, ok := s.registry.Dataset(req.Dataset)
	if !ok {
		writeError(w, r, http.StatusNotFound, CodeNotFound, fmt.Sprintf("unknown dataset %q", req.Dataset))
		return
	}
	mode := engine.Optimistic
	if req.Mode != "" {
		var err error
		if mode, err = engine.ParseMode(req.Mode); err != nil {
			writeError(w, r, http.StatusBadRequest, CodeBadRequest, err.Error())
			return
		}
	}
	if req.Seed != 0 && !s.allowSeeds {
		writeError(w, r, http.StatusForbidden, CodePolicyDenied,
			"fixed seeds are disabled on this server (a known seed lets the analyst strip the noise); omit seed or ask the owner to enable -allow-seeds")
		return
	}
	sess, err := s.sessions.Create(req.Dataset, ds, req.Budget, mode, req.Seed, req.Reuse)
	if err != nil {
		status, code := http.StatusBadRequest, CodeBadRequest
		if errors.Is(err, ErrPolicyDenied) {
			status, code = http.StatusForbidden, CodePolicyDenied
		}
		writeError(w, r, status, code, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, sessionInfo(sess))
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	live := s.sessions.List()
	out := make([]SessionInfo, 0, len(live))
	for _, sess := range live {
		out = append(out, sessionInfo(sess))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.Get(r.PathValue("id"))
	if !ok {
		writeError(w, r, http.StatusNotFound, CodeNotFound, "unknown session")
		return
	}
	writeJSON(w, http.StatusOK, sessionInfo(sess))
}

func (s *Server) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	if !s.sessions.Close(r.PathValue("id")) {
		writeError(w, r, http.StatusNotFound, CodeNotFound, "unknown session")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "closed"})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.Get(r.PathValue("id"))
	if !ok {
		writeError(w, r, http.StatusNotFound, CodeNotFound, "unknown session")
		return
	}
	var req QueryRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	// Same entry point and error format as the apex CLI.
	q, err := query.ParseLine(req.Query)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, CodeParseError, err.Error())
		return
	}
	if q == nil {
		writeError(w, r, http.StatusBadRequest, CodeParseError, "empty query")
		return
	}
	eng := sess.Engine()
	// Tag the trace with what the debug endpoint filters on. The query
	// text is bounded: it identifies the workload without letting a huge
	// request body bloat the trace ring.
	if tr := obs.FromContext(r.Context()); tr != nil {
		tr.Tag("dataset", sess.Dataset)
		tr.Tag("session", sess.ID)
		tr.Tag("query", truncateQuery(req.Query))
		// The canonical-workload ID — grouping requests that are the same
		// workload under different text in /v1/debug/top?by=workload — is
		// stamped by engine.Prepare, which has the rendered key in hand.
	}
	// Every query runs through the per-dataset scheduler: admission with
	// backpressure, fair dispatch across sessions, and one batched
	// columnar pass for the noise-free scans of whatever else is pending
	// on this dataset. Engine semantics (and error surface) are exactly
	// those of a direct AskContext.
	ans, err := s.sched.Ask(r.Context(), sess.Dataset, sess.ID, eng, q)
	// Budget is immutable, so deriving remaining from one Spent() read
	// keeps spent+remaining == B even under concurrent queries.
	spent := eng.Spent()
	switch {
	case errors.Is(err, sched.ErrQueueFull):
		// Backpressure: the dataset's queue is at capacity. 429 with a
		// Retry-After hint and the current queue depth, so a backing-off
		// client can judge the congestion; nothing was admitted, charged
		// or logged.
		secs := int((s.sched.RetryAfter() + time.Second - 1) / time.Second)
		depth := s.sched.QueueDepth(sess.Dataset)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
			Error:             "dataset queue is full; retry after backoff",
			Code:              CodeQueueFull,
			TraceID:           obs.RequestID(r.Context()),
			QueueDepth:        &depth,
			RetryAfterSeconds: secs,
		})
	case errors.Is(err, sched.ErrShutdown):
		writeError(w, r, http.StatusServiceUnavailable, CodeUnavailable,
			"server is draining; retry against the restarted instance")
	case errors.Is(err, engine.ErrDenied):
		writeJSON(w, http.StatusOK, QueryResponse{
			Denied:    true,
			Reason:    "insufficient privacy budget: no applicable mechanism's worst-case loss fits the remaining budget",
			TraceID:   obs.RequestID(r.Context()),
			Spent:     spent,
			Remaining: eng.Budget() - spent,
		})
	case errors.Is(err, engine.ErrPersist):
		// The entry could not be made durable; the budget charge stands
		// (never under-account across a crash) but the answer is withheld.
		// Checked before the canceled case: a disconnected client must
		// not reclassify a charge-bearing durability failure as
		// "nothing was charged", and the failure must reach the log.
		log.Printf("server: session %s: %v", sess.ID, err)
		writeError(w, r, http.StatusInternalServerError, CodeInternal, "transcript persistence failed")
	case errors.Is(err, engine.ErrSealed):
		// The session was closed while this query was in flight.
		writeError(w, r, http.StatusNotFound, CodeNotFound, "session closed")
	case err != nil && r.Context().Err() != nil:
		// Client went away. The scheduler abandons canceled work before
		// anything is charged (queued, admitted or even executed-but-
		// uncommitted plans are aborted); only a cancellation landing
		// inside the commit itself leaves a charge, and then the paid
		// answer is in the transcript.
		writeError(w, r, http.StatusRequestTimeout, CodeBadRequest,
			"request canceled; any committed charge is visible in the transcript")
	case errors.Is(err, engine.ErrMechanismFailure):
		// The raw error can carry data-dependent values (e.g. an actual
		// loss that overran its bound), so the analyst gets a generic
		// body and the detail stays in the server log.
		log.Printf("server: session %s: %v", sess.ID, err)
		writeError(w, r, http.StatusInternalServerError, CodeInternal, "internal mechanism failure")
	case err != nil:
		// Everything else is an analyst-input problem (unknown attribute,
		// invalid accuracy requirement, ...).
		writeError(w, r, http.StatusBadRequest, CodeBadRequest, err.Error())
	default:
		writeJSON(w, http.StatusOK, QueryResponse{
			TraceID:      obs.RequestID(r.Context()),
			Mechanism:    ans.Mechanism,
			Epsilon:      ans.Epsilon,
			EpsilonUpper: ans.EpsilonUpper,
			Counts:       ans.Counts,
			Selected:     ans.Selected,
			Predicates:   renderPredicates(ans.Predicates),
			Spent:        spent,
			Remaining:    eng.Budget() - spent,
		})
	}
}

// truncateQuery bounds the query text stored as a trace tag.
func truncateQuery(q string) string {
	const maxTag = 200
	if len(q) <= maxTag {
		return q
	}
	return q[:maxTag] + "..."
}

func (s *Server) handleTranscript(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.Get(r.PathValue("id"))
	if !ok {
		writeError(w, r, http.StatusNotFound, CodeNotFound, "unknown session")
		return
	}
	// ?since=N returns only entries with index >= N, so audit tailers
	// fetch the delta instead of the whole history on every poll. The
	// validity verdict always covers the full transcript.
	since := 0
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, r, http.StatusBadRequest, CodeBadRequest, "since must be a nonnegative integer")
			return
		}
		since = n
	}
	eng := sess.Engine()
	resp := TranscriptResponse{
		Session: sess.ID,
		Dataset: sess.Dataset,
		Budget:  eng.Budget(),
		Entries: []TranscriptEntry{},
	}
	err := s.readTranscript(sess, since, func(i int, e engine.Entry) {
		te := TranscriptEntry{Index: i, Label: e.Label, Denied: e.Denied, Epsilon: e.Epsilon, TraceID: e.TraceID}
		if !e.At.IsZero() {
			te.At = e.At.UTC().Format(time.RFC3339Nano)
		}
		if e.Query != nil {
			te.Query = e.Query.String()
		}
		if e.Answer != nil {
			te.EpsilonUpper = e.Answer.EpsilonUpper
			te.Mechanism = e.Answer.Mechanism
			te.Counts = e.Answer.Counts
			te.Selected = e.Answer.Selected
			te.Predicates = renderPredicates(e.Answer.Predicates)
		}
		resp.Entries = append(resp.Entries, te)
	})
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, CodeTranscriptUnavailable, "session transcript could not be read back from its log")
		return
	}
	// The verdict covers the full history, from the engine's ledger.
	spent, err := eng.Validate()
	resp.Spent = spent
	resp.Valid = err == nil
	if err != nil {
		resp.Invalid = err.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}

// readTranscript streams sess's transcript entries from index from (≥ 0)
// on through fn, one at a time, so a caller keeps only what it renders from
// each. On a durable server the entries come from the session's WAL,
// read outside the engine lock: a read never blocks a commit. A failed
// read is logged and counted and returns the error; fn may have seen a
// prefix by then.
func (s *Server) readTranscript(sess *Session, from int, fn func(i int, e engine.Entry)) error {
	start := time.Now()
	i := from
	for e, err := range sess.Engine().Entries(from) {
		if err != nil {
			s.transcriptReadErrs.Inc()
			log.Printf("server: session %s: transcript read: %v", sess.ID, err)
			return err
		}
		fn(i, e)
		i++
	}
	s.transcriptRead.Observe(time.Since(start).Seconds())
	return nil
}

func sessionInfo(sess *Session) SessionInfo {
	eng := sess.Engine()
	spent := eng.Spent()
	return SessionInfo{
		ID:        sess.ID,
		Dataset:   sess.Dataset,
		Mode:      eng.Mode().String(),
		Budget:    eng.Budget(),
		Spent:     spent,
		Remaining: eng.Budget() - spent,
		Queries:   eng.TranscriptLen(),
		Created:   sess.Created.UTC().Format(time.RFC3339),
	}
}

// renderPredicates returns each predicate's String(), rendered into one
// buffer and cut out of one string: a response's bins cost a few
// allocations, not a few per bin.
func renderPredicates(preds []dataset.Predicate) []string {
	b := make([]byte, 0, 32*len(preds))
	ends := make([]int, len(preds))
	for i, p := range preds {
		b = dataset.AppendPredicate(b, p)
		ends[i] = len(b)
	}
	all := string(b)
	out := make([]string, len(preds))
	start := 0
	for i, end := range ends {
		out[i], start = all[start:end], end
	}
	return out
}

// Request body caps: control-plane requests are tiny; dataset uploads
// carry inline CSV and get more headroom. Both bound memory per request.
const (
	maxControlBody = 1 << 20  // 1 MiB, matches the CLI's line cap
	maxDatasetBody = 64 << 20 // 64 MiB
)

// decodeJSON parses a control-plane request body into v, replying 400 and
// returning false on malformed or oversized input.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	return decodeJSONLimit(w, r, v, maxControlBody)
}

func decodeJSONLimit(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, r, http.StatusBadRequest, CodeBadRequest, "invalid JSON body: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes the uniform JSON error body. It takes the request so
// every error carries the trace ID the middleware assigned — the ID an
// analyst quotes to an operator, who greps the slow-query log or fetches
// /v1/debug/traces with it.
func writeError(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg, Code: code, TraceID: obs.RequestID(r.Context())})
}
