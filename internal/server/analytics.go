package server

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/analytics"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/workload"
)

// AnalyticsConfig tunes the workload analytics plane (Config.Analytics):
// per-request cost attribution with top-K heavy hitters, the in-process
// time-series ring, and the anomaly flight recorder. The zero value
// enables attribution and the time series with defaults and leaves the
// flight recorder off (it needs a directory).
type AnalyticsConfig struct {
	// Disable turns the analytics plane off entirely (no collector, no
	// time series, no recorder). Attribution also requires tracing: with
	// Trace.Disable set there are no finished traces to attribute.
	Disable bool
	// TimeseriesWindow is the sample-ring size; <= 0 means
	// analytics.DefaultWindow (600 samples).
	TimeseriesWindow int
	// TimeseriesInterval is the sampler pace; <= 0 means 1s.
	TimeseriesInterval time.Duration
	// Recorder configures the anomaly flight recorder. Recorder.Dir
	// empty leaves the recorder disabled. The P99/QueueDepth/Traces
	// sources and Metrics are wired by the server.
	Recorder analytics.RecorderConfig
}

// RecorderConfig aliases the flight recorder's configuration so callers
// wiring Config.Analytics.Recorder need not import internal/analytics.
type RecorderConfig = analytics.RecorderConfig

// ExplainChoiceView is one applicable mechanism's translated cost in an
// EXPLAIN response.
type ExplainChoiceView struct {
	Mechanism    string  `json:"mechanism"`
	EpsilonLower float64 `json:"epsilon_lower"`
	EpsilonUpper float64 `json:"epsilon_upper"`
	Affordable   bool    `json:"affordable"`
}

// ExplainResponse is the body of POST /v1/sessions/{id}/explain: the
// engine's dry-run prediction for the query, with zero budget spend —
// no reservation, no charge, no transcript entry, no WAL frame.
type ExplainResponse struct {
	TraceID string `json:"trace_id,omitempty"`
	Dataset string `json:"dataset"`
	Session string `json:"session"`
	// Workload is the canonical workload's analytics ID — the key GET
	// /v1/debug/top?by=workload ranks by.
	Workload string `json:"workload"`
	// Storage is where the dataset's serving table lives: heap or mmap.
	Storage string `json:"storage"`

	// Denied predicts a budget denial; Mechanism/EpsilonLower/
	// EpsilonUpper describe the chosen strategy otherwise ("cache" with
	// zero ε on a predicted reuse hit).
	Denied       bool    `json:"denied"`
	Mechanism    string  `json:"mechanism,omitempty"`
	EpsilonLower float64 `json:"epsilon_lower"`
	EpsilonUpper float64 `json:"epsilon_upper"`
	ReuseHit     bool    `json:"reuse_hit"`

	// Cache status: whether the workload-transform cache and the shared
	// Monte-Carlo translation plane held this workload before the
	// explain ran (the explain itself warms both, like a real Prepare).
	TransformCacheHit bool `json:"transform_cache_hit"`
	TranslateCacheHit bool `json:"translate_cache_hit"`

	// Budget state the admission prediction was made against.
	Spent     float64 `json:"spent"`
	Remaining float64 `json:"remaining"`

	// Workload shape and predicted scan.
	Sensitivity        float64  `json:"sensitivity"`
	Partitions         int      `json:"partitions"`
	PlannedColumns     []string `json:"planned_columns,omitempty"`
	PredictedScanBytes int64    `json:"predicted_scan_bytes"`
	// ScanPlanExact is true when the prediction is what the query will
	// read, to the byte, by the columnar accounting BatchStats uses. It is
	// false for row-path workloads, and for a column set never tried whose
	// projection build may abort: the prediction assumes the build, an
	// abort reads the columns twice. Once the set has been tried it is true.
	ScanPlanExact bool `json:"scan_plan_exact"`

	Choices []ExplainChoiceView `json:"choices,omitempty"`
}

// handleExplain serves the dry-run EXPLAIN: it runs the engine's
// Prepare/translate path — hitting (and warming) the transform cache and
// the shared translation plane — but never reserves, executes, charges
// or logs anything.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.Get(r.PathValue("id"))
	if !ok {
		writeError(w, r, http.StatusNotFound, CodeNotFound, "unknown session")
		return
	}
	var req QueryRequest
	if !decodeJSON(w, r, &req) {
		return
	}
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
	ex, err := eng.Explain(q)
	if err != nil {
		// Explain failures are analyst-input problems: validation,
		// unknown attributes, untransformable workloads.
		writeError(w, r, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	if tr := obs.FromContext(r.Context()); tr != nil {
		tr.Tag("dataset", sess.Dataset)
		tr.Tag("session", sess.ID)
		tr.Tag("query", truncateQuery(req.Query))
		tr.Tag("explain", "true")
	}
	storage := ""
	if ds, ok := s.registry.Dataset(sess.Dataset); ok {
		storage = ds.Mode.String()
	}
	cols := make([]string, 0, len(ex.PlannedColumns))
	schema := eng.Table().Schema()
	for _, pos := range ex.PlannedColumns {
		cols = append(cols, schema.Attr(pos).Name)
	}
	spent := eng.Spent()
	resp := ExplainResponse{
		TraceID:            obs.RequestID(r.Context()),
		Dataset:            sess.Dataset,
		Session:            sess.ID,
		Workload:           workload.ID(ex.Key),
		Storage:            storage,
		Denied:             ex.Denied,
		Mechanism:          ex.Mechanism,
		EpsilonLower:       ex.EpsilonLower,
		EpsilonUpper:       ex.EpsilonUpper,
		ReuseHit:           ex.ReuseHit,
		TransformCacheHit:  ex.TransformCacheHit,
		TranslateCacheHit:  ex.TranslateCacheHit,
		Spent:              spent,
		Remaining:          ex.Remaining,
		Sensitivity:        ex.Sensitivity,
		Partitions:         ex.Partitions,
		PlannedColumns:     cols,
		PredictedScanBytes: ex.PredictedScanBytes,
		ScanPlanExact:      ex.ScanPlanExact,
	}
	for _, c := range ex.Choices {
		resp.Choices = append(resp.Choices, ExplainChoiceView{
			Mechanism:    c.Mechanism,
			EpsilonLower: c.EpsilonLower,
			EpsilonUpper: c.EpsilonUpper,
			Affordable:   c.Affordable,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// TopResponse is the body of GET /v1/debug/top.
type TopResponse struct {
	// By echoes the ranked dimension: dataset, session or workload.
	By      string               `json:"by"`
	Entries []analytics.TopEntry `json:"entries"`
}

// handleTop serves the cost heavy hitters. Params: ?by=workload (default;
// also dataset, session), ?k=10. Unknown or malformed parameters are
// structured 400s, never silently ignored.
func (s *Server) handleTop(w http.ResponseWriter, r *http.Request) {
	if s.analytics == nil {
		writeError(w, r, http.StatusNotFound, CodeNotFound, "analytics is disabled on this server")
		return
	}
	q := r.URL.Query()
	if !validParams(w, r, q, "by", "k") {
		return
	}
	by := q.Get("by")
	if by == "" {
		by = "workload"
	}
	k := 10
	if v := q.Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, r, http.StatusBadRequest, CodeBadRequest, "k must be a positive integer")
			return
		}
		k = n
	}
	entries, err := s.analytics.Top(by, k)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	if entries == nil {
		entries = []analytics.TopEntry{}
	}
	writeJSON(w, http.StatusOK, TopResponse{By: by, Entries: entries})
}

// TimeseriesResponse is the body of GET /v1/debug/timeseries.
type TimeseriesResponse struct {
	IntervalMS int64              `json:"interval_ms"`
	Samples    []analytics.Sample `json:"samples"`
}

// handleTimeseries serves the in-process history ring, oldest sample
// first. Params: ?n= caps the sample count (default: the whole window).
func (s *Server) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	if s.timeseries == nil {
		writeError(w, r, http.StatusNotFound, CodeNotFound, "analytics is disabled on this server")
		return
	}
	q := r.URL.Query()
	if !validParams(w, r, q, "n") {
		return
	}
	n := 0
	if v := q.Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed <= 0 {
			writeError(w, r, http.StatusBadRequest, CodeBadRequest, "n must be a positive integer")
			return
		}
		n = parsed
	}
	writeJSON(w, http.StatusOK, TimeseriesResponse{
		IntervalMS: s.timeseries.Interval().Milliseconds(),
		Samples:    s.timeseries.Snapshot(n),
	})
}

// DebugConfig is the runtime-adjustable observability policy served (GET)
// and updated (PUT) at /v1/debug/config. Durations use Go syntax
// ("250ms"); PUT bodies may set any subset — absent fields keep their
// value. A zero duration/threshold disables the corresponding trigger.
type DebugConfig struct {
	// SlowQuery is the slow-query log threshold ("0s" = log disabled).
	SlowQuery string `json:"slow_query"`
	// RecorderP99 is the flight recorder's p99 total-latency trigger.
	RecorderP99 string `json:"recorder_p99,omitempty"`
	// RecorderQueueDepth is the flight recorder's queue-depth trigger.
	RecorderQueueDepth *int `json:"recorder_queue_depth,omitempty"`
	// RecorderDir reports the bundle directory (GET only; "" = recorder
	// disabled).
	RecorderDir string `json:"recorder_dir,omitempty"`
}

func (s *Server) debugConfig() DebugConfig {
	cfg := DebugConfig{SlowQuery: s.tracer.SlowThreshold().String()}
	if s.recorder != nil {
		p99, qd := s.recorder.Thresholds()
		cfg.RecorderP99 = p99.String()
		cfg.RecorderQueueDepth = &qd
		cfg.RecorderDir = s.recorder.Dir()
	}
	return cfg
}

// handleDebugConfig serves and adjusts the runtime observability knobs:
// the slow-query threshold and the flight-recorder triggers, so an
// operator chasing an incident never needs a restart.
func (s *Server) handleDebugConfig(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		writeJSON(w, http.StatusOK, s.debugConfig())
		return
	}
	var req DebugConfig
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.SlowQuery != "" {
		d, err := time.ParseDuration(req.SlowQuery)
		if err != nil || d < 0 {
			writeError(w, r, http.StatusBadRequest, CodeBadRequest,
				"slow_query must be a nonnegative Go duration (e.g. 250ms; 0s disables)")
			return
		}
		if s.tracer == nil {
			writeError(w, r, http.StatusBadRequest, CodeBadRequest, "tracing is disabled on this server")
			return
		}
		s.tracer.SetSlowThreshold(d)
	}
	if req.RecorderP99 != "" || req.RecorderQueueDepth != nil {
		if s.recorder == nil {
			writeError(w, r, http.StatusBadRequest, CodeBadRequest,
				"flight recorder is disabled on this server (no incident directory configured)")
			return
		}
		p99, qd := s.recorder.Thresholds()
		if req.RecorderP99 != "" {
			d, err := time.ParseDuration(req.RecorderP99)
			if err != nil || d < 0 {
				writeError(w, r, http.StatusBadRequest, CodeBadRequest,
					"recorder_p99 must be a nonnegative Go duration (0s disables the trigger)")
				return
			}
			p99 = d
		}
		if req.RecorderQueueDepth != nil {
			if *req.RecorderQueueDepth < 0 {
				writeError(w, r, http.StatusBadRequest, CodeBadRequest,
					"recorder_queue_depth must be nonnegative (0 disables the trigger)")
				return
			}
			qd = *req.RecorderQueueDepth
		}
		s.recorder.SetThresholds(p99, qd)
	}
	writeJSON(w, http.StatusOK, s.debugConfig())
}

// validParams rejects query parameters outside the allowed set with a
// structured 400 carrying the trace ID — a typo like ?mindur= must fail
// loudly, not silently return unfiltered data.
func validParams(w http.ResponseWriter, r *http.Request, q url.Values, allowed ...string) bool {
	for name := range q {
		known := false
		for _, a := range allowed {
			if name == a {
				known = true
				break
			}
		}
		if !known {
			writeError(w, r, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("unknown query parameter %q (supported: %v)", name, allowed))
			return false
		}
	}
	return true
}

// maxQueueDepth reports the deepest per-dataset queue — the flight
// recorder's congestion signal.
func (s *Server) maxQueueDepth() int {
	max := 0
	for _, name := range s.registry.Names() {
		if d := s.sched.QueueDepth(name); d > max {
			max = d
		}
	}
	return max
}
