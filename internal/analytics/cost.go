// Package analytics is the server's workload-analytics plane: it turns
// the per-request traces the obs package already records into an
// aggregate resource economy an operator (or the future shard router) can
// query.
//
// Four surfaces:
//
//   - per-request cost vectors (CPU time, scan bytes, queue wait,
//     translate time, cache-hit flags, settled ε) extracted from each
//     finished trace's span tree and folded into per-dataset aggregates
//     plus space-saving top-K heavy-hitter sketches over sessions and
//     canonical workloads (Collector, served at GET /v1/debug/top and as
//     apex_analytics_* metric families);
//   - an in-process time-series ring: a 1 Hz self-snapshot of key gauges
//     and histogram quantiles over a bounded window (Timeseries, served
//     at GET /v1/debug/timeseries), so operators get recent history
//     without an external Prometheus;
//   - an anomaly flight recorder: when p99 latency or queue depth crosses
//     a (runtime-adjustable) threshold, a pprof CPU profile + goroutine
//     dump + the recent trace ring are captured into a bounded on-disk
//     incident bundle (FlightRecorder);
//   - EXPLAIN support types shared with the engine's dry-run path.
//
// Like internal/obs and internal/metrics, the package is dependency-free
// and nil-tolerant: a nil *Collector, *Timeseries or *FlightRecorder
// accepts every method as a no-op, so call sites never check whether
// analytics is enabled.
package analytics

import (
	"strconv"
	"time"

	"repro/internal/obs"
)

// CostVector is the additive resource cost of one or more requests. All
// fields aggregate by plain summation, so per-dataset, per-session and
// per-workload rollups are folds of the same type.
type CostVector struct {
	// Requests counts the observed request traces.
	Requests int64 `json:"requests"`
	// CPUNanos is the summed wall time of the request's processing phases
	// (prepare + execute + commit, including nested translate and WAL
	// flush waits) — the time the server actively worked on the request,
	// as opposed to queue wait.
	CPUNanos int64 `json:"cpu_ns"`
	// QueueNanos is the summed scheduler queue wait.
	QueueNanos int64 `json:"queue_ns"`
	// TranslateNanos is the summed Monte-Carlo translation time inside
	// Prepare (a cache hit makes this nanoseconds, a miss ~10ms).
	TranslateNanos int64 `json:"translate_ns"`
	// ScanBytes is the request's attributed share of batched columnar
	// scan traffic. Shares are computed so that they sum exactly to the
	// BatchStats.ScanBytes accounting: a batch's total is split across
	// its members with the remainder spread one byte at a time, so a
	// batch of one is attributed its exact BatchStats figure.
	ScanBytes int64 `json:"scan_bytes"`
	// Epsilon is the summed settled (actual) privacy loss.
	Epsilon float64 `json:"epsilon"`
	// TransformHits / TranslateHits / ReuseHits count requests whose
	// prepare phase hit the workload-transform cache, the shared
	// translation plane, and the §9 answer-reuse cache respectively.
	TransformHits int64 `json:"transform_cache_hits"`
	TranslateHits int64 `json:"translate_cache_hits"`
	ReuseHits     int64 `json:"reuse_hits"`
	// Denied counts budget denials; Errors counts requests whose HTTP
	// status was >= 400.
	Denied int64 `json:"denied"`
	// Errors counts requests that finished with an HTTP error status.
	Errors int64 `json:"errors"`
}

// Add folds o into v.
func (v *CostVector) Add(o CostVector) {
	v.Requests += o.Requests
	v.CPUNanos += o.CPUNanos
	v.QueueNanos += o.QueueNanos
	v.TranslateNanos += o.TranslateNanos
	v.ScanBytes += o.ScanBytes
	v.Epsilon += o.Epsilon
	v.TransformHits += o.TransformHits
	v.TranslateHits += o.TranslateHits
	v.ReuseHits += o.ReuseHits
	v.Denied += o.Denied
	v.Errors += o.Errors
}

// RequestCost is one request's extracted cost vector plus the dimensions
// it aggregates under.
type RequestCost struct {
	TraceID  string
	Dataset  string
	Session  string
	Workload string // workload.ID of the canonical workload key; "" when untagged
	Query    string // bounded query text from the trace tag
	Vector   CostVector
}

// ExtractCost walks one finished trace's span tree and assembles its cost
// vector. ok is false for traces without a "dataset" tag — control-plane
// and debug requests, which have no resource economy to attribute.
func ExtractCost(v obs.TraceView) (RequestCost, bool) {
	ds := v.Tags["dataset"]
	if ds == "" {
		return RequestCost{}, false
	}
	rc := RequestCost{
		TraceID:  v.ID,
		Dataset:  ds,
		Session:  v.Tags["session"],
		Workload: v.Tags["workload"],
		Query:    v.Tags["query"],
	}
	rc.Vector.Requests = 1
	if st, err := strconv.Atoi(v.Tags["status"]); err == nil && st >= 400 {
		rc.Vector.Errors = 1
	}
	for _, sp := range v.Spans {
		extractSpan(&rc.Vector, sp)
	}
	return rc, true
}

// extractSpan folds one span (and its children) into the vector.
func extractSpan(cv *CostVector, sp obs.SpanView) {
	d := time.Duration(sp.DurationUS) * time.Microsecond
	switch sp.Name {
	case "queue":
		cv.QueueNanos += int64(d)
	case "prepare", "execute", "commit":
		// Top-level processing phases; nested spans (translate under
		// prepare, wal_flush under commit) are already inside these
		// durations, so only the top level counts toward CPU time.
		cv.CPUNanos += int64(d)
	case "translate":
		cv.TranslateNanos += int64(d)
		if attrBool(sp.Attrs, "translate_cache_hit") {
			cv.TranslateHits++
		}
	case "scan":
		// The scheduler stamps every scan span with this request's exact
		// share of the batch's traffic.
		if b, ok := attrInt(sp.Attrs, "scan_share_bytes"); ok {
			cv.ScanBytes += b
		}
	}
	switch sp.Name {
	case "prepare":
		if attrBool(sp.Attrs, "transform_cache_hit") {
			cv.TransformHits++
		}
		if attrBool(sp.Attrs, "reuse_hit") {
			cv.ReuseHits++
		}
		if attrBool(sp.Attrs, "denied") {
			cv.Denied++
		}
	case "commit":
		if e, ok := attrFloat(sp.Attrs, "epsilon"); ok {
			cv.Epsilon += e
		}
	}
	for _, c := range sp.Spans {
		extractSpan(cv, c)
	}
}

// Attr values are Go basics in-process (bool, int, int64, float64) but
// float64/bool after a JSON round trip; the helpers accept both.

func attrBool(attrs map[string]any, key string) bool {
	b, _ := attrs[key].(bool)
	return b
}

func attrInt(attrs map[string]any, key string) (int64, bool) {
	switch x := attrs[key].(type) {
	case int:
		return int64(x), true
	case int64:
		return x, true
	case float64:
		return int64(x), true
	}
	return 0, false
}

func attrFloat(attrs map[string]any, key string) (float64, bool) {
	switch x := attrs[key].(type) {
	case float64:
		return x, true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	}
	return 0, false
}
