package server

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// TraceConfig tunes the server's request tracing (Config.Trace). The zero
// value traces every request into a default-capacity ring with no
// slow-query log.
type TraceConfig struct {
	// Disable turns request tracing off entirely. Requests still get (and
	// echo) X-Request-ID trace IDs — only span recording, the debug-trace
	// ring and the slow-query log are disabled.
	Disable bool
	// SlowQuery, when > 0, logs every request at least this slow as one
	// structured JSON line to SlowWriter.
	SlowQuery time.Duration
	// SlowWriter receives slow-query log lines; nil means os.Stderr.
	SlowWriter io.Writer
}

// withObs is the outermost middleware: every request gets a trace ID
// (client-supplied X-Request-ID when it passes sanitization, generated
// otherwise) echoed back in the X-Request-ID response header and carried
// in the context for error bodies and transcript provenance. Requests on
// observable paths additionally get a trace recorded into the debug ring.
// It also rewrites the mux's built-in text 404/405 replies into the same
// structured JSON error bodies every other path returns.
func (s *Server) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := obs.SanitizeRequestID(r.Header.Get("X-Request-ID"))
		if rid == "" {
			rid = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", rid)
		ctx := obs.WithRequestID(r.Context(), rid)
		var trace *obs.Trace
		if s.tracer != nil && observedPath(r.URL.Path) {
			ctx, trace = s.tracer.Start(ctx, rid, r.Method+" "+r.URL.Path)
		}
		jw := &jsonErrorWriter{ResponseWriter: w, rid: rid}
		next.ServeHTTP(jw, r.WithContext(ctx))
		if trace != nil {
			trace.Tag("status", strconv.Itoa(jw.status()))
			trace.Finish()
		}
	})
}

// observedPath excludes the observability plane itself from the trace
// ring: metrics scrapes, health probes and trace fetches would otherwise
// evict the query traces an operator is there to read.
func observedPath(p string) bool {
	return p != "/metrics" && p != "/healthz" &&
		p != "/v1/healthz" && p != "/v1/readyz" &&
		!strings.HasPrefix(p, "/v1/debug/")
}

// jsonErrorWriter wraps a ResponseWriter to (a) record the final status
// for the trace and (b) intercept the text/plain 404 and 405 bodies
// net/http's mux writes for unmatched routes, replacing them with the
// server's JSON error shape. Handler-written JSON errors (Content-Type
// already application/json at WriteHeader time) pass through untouched.
type jsonErrorWriter struct {
	http.ResponseWriter
	rid         string
	st          int
	wroteHeader bool
	suppress    bool
}

func (w *jsonErrorWriter) status() int {
	if w.st == 0 {
		return http.StatusOK
	}
	return w.st
}

func (w *jsonErrorWriter) WriteHeader(status int) {
	if w.wroteHeader {
		return
	}
	w.wroteHeader = true
	w.st = status
	if (status == http.StatusNotFound || status == http.StatusMethodNotAllowed) &&
		!strings.HasPrefix(w.Header().Get("Content-Type"), "application/json") {
		code, msg := CodeNotFound, "no such endpoint"
		if status == http.StatusMethodNotAllowed {
			code, msg = CodeMethodNotAllowed, "method not allowed for this endpoint"
		}
		w.suppress = true
		w.Header().Set("Content-Type", "application/json")
		w.ResponseWriter.WriteHeader(status)
		b, _ := json.Marshal(ErrorResponse{Error: msg, Code: code, TraceID: w.rid})
		w.ResponseWriter.Write(append(b, '\n'))
		return
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *jsonErrorWriter) Write(b []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if w.suppress {
		// The original text body is swallowed; the JSON replacement was
		// already written from WriteHeader.
		return len(b), nil
	}
	return w.ResponseWriter.Write(b)
}

// TraceView and SpanView alias the tracer's rendered trace so API
// consumers (the Go client mirrors the wire types here) need not import
// internal/obs.
type (
	TraceView = obs.TraceView
	SpanView  = obs.SpanView
)

// TracesResponse is the body of GET /v1/debug/traces.
type TracesResponse struct {
	Traces []TraceView `json:"traces"`
}

// defaultTraceLimit caps an unbounded trace fetch; ?limit= overrides up
// to the ring capacity.
const defaultTraceLimit = 50

// handleTraces serves the ring of recent request traces, newest first.
// Filters: ?dataset=, ?session=, ?min_duration= (Go duration syntax,
// e.g. 50ms), ?limit=. Unknown parameters are structured 400s (with the
// request's trace ID), never silently ignored: a misspelled filter must
// not quietly return the unfiltered ring.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeError(w, r, http.StatusNotFound, CodeNotFound, "tracing is disabled on this server")
		return
	}
	q := r.URL.Query()
	if !validParams(w, r, q, "dataset", "session", "min_duration", "limit") {
		return
	}
	f := obs.Filter{Dataset: q.Get("dataset"), Session: q.Get("session"), Limit: defaultTraceLimit}
	if v := q.Get("min_duration"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			writeError(w, r, http.StatusBadRequest, CodeBadRequest,
				"min_duration must be a nonnegative Go duration (e.g. 50ms)")
			return
		}
		f.MinDuration = d
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, r, http.StatusBadRequest, CodeBadRequest, "limit must be a positive integer")
			return
		}
		f.Limit = n
	}
	views := s.tracer.Traces(f)
	if views == nil {
		views = []obs.TraceView{}
	}
	writeJSON(w, http.StatusOK, TracesResponse{Traces: views})
}

// AuditEvent is one budget-relevant interaction on a dataset's spend
// timeline: which session and transcript slot, when and under which
// request trace it committed, and what it cost.
type AuditEvent struct {
	Session      string  `json:"session"`
	Index        int     `json:"index"`
	At           string  `json:"at,omitempty"`       // RFC3339Nano; absent for untraced entries
	TraceID      string  `json:"trace_id,omitempty"` // request that committed the entry
	Query        string  `json:"query,omitempty"`
	Label        string  `json:"label,omitempty"`
	Denied       bool    `json:"denied,omitempty"`
	Mechanism    string  `json:"mechanism,omitempty"`
	Epsilon      float64 `json:"epsilon"`
	EpsilonUpper float64 `json:"epsilon_upper,omitempty"`
	// Cumulative is the running total of actual loss across the whole
	// dataset timeline up to and including this event.
	Cumulative float64 `json:"cumulative_epsilon"`
}

// AuditResponse is the body of GET /v1/datasets/{name}/audit: every live
// session's transcript over the dataset merged into one chronological
// spend timeline, so an operator can attribute every unit of spent
// privacy budget to a concrete request.
type AuditResponse struct {
	Dataset    string       `json:"dataset"`
	Sessions   int          `json:"sessions"`
	TotalSpent float64      `json:"total_spent"`
	Events     []AuditEvent `json:"events"`
}

// handleAudit reconstructs the per-dataset budget spend timeline from the
// live sessions' transcripts, each streamed once and reduced to its
// events as it is read. Entries committed by traced requests carry
// their commit time and trace ID and sort chronologically; entries
// without timing (engine-direct charges, transcripts from before tracing)
// keep their per-session order, ahead of the timed ones.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := s.registry.Dataset(name); !ok {
		writeError(w, r, http.StatusNotFound, CodeNotFound, "unknown dataset "+strconv.Quote(name))
		return
	}
	sessions := s.sessions.ForDataset(name)
	resp := AuditResponse{Dataset: name, Sessions: len(sessions), Events: []AuditEvent{}}
	type keyed struct {
		ev AuditEvent
		at time.Time
	}
	var events []keyed
	for _, sess := range sessions {
		err := s.readTranscript(sess, 0, func(i int, e engine.Entry) {
			ev := AuditEvent{
				Session: sess.ID,
				Index:   i,
				TraceID: e.TraceID,
				Label:   e.Label,
				Denied:  e.Denied,
				Epsilon: e.Epsilon,
			}
			if !e.At.IsZero() {
				ev.At = e.At.UTC().Format(time.RFC3339Nano)
			}
			if e.Query != nil {
				ev.Query = e.Query.String()
			}
			if e.Answer != nil {
				ev.Mechanism = e.Answer.Mechanism
				ev.EpsilonUpper = e.Answer.EpsilonUpper
			}
			events = append(events, keyed{ev: ev, at: e.At})
		})
		if err != nil {
			writeError(w, r, http.StatusInternalServerError, CodeTranscriptUnavailable,
				"transcript of session "+sess.ID+" could not be read back from its log")
			return
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i].at, events[j].at
		if a.IsZero() != b.IsZero() {
			return a.IsZero() // untraced history first, in session order
		}
		return a.Before(b)
	})
	var cum float64
	for _, k := range events {
		cum += k.ev.Epsilon
		k.ev.Cumulative = cum
		resp.Events = append(resp.Events, k.ev)
	}
	resp.TotalSpent = cum
	writeJSON(w, http.StatusOK, resp)
}
