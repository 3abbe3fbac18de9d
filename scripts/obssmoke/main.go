// Command obssmoke is the CI observability smoke: it builds apex-server,
// starts it with a slow-query log, a trace ring and the private debug
// listener, runs a traced query with a caller-chosen X-Request-ID, and
// asserts the whole observability surface end to end:
//
//   - the trace ID round-trips into the query response, the transcript
//     entry and the dataset audit timeline;
//   - GET /v1/debug/traces serves the trace with the pipeline phases
//     (queue, prepare, execute, commit, wal_flush) nested inside the root;
//   - the slow-query log (threshold 1ns, so everything is "slow") emits a
//     structured JSON line carrying the same trace ID;
//   - /metrics exports the apex_phase_seconds histogram with samples;
//   - the debug listener answers /debug/pprof/ and the runtime gauges
//     (apex_goroutines) appear on its private /metrics;
//   - POST /v1/sessions/{id}/explain predicts mechanism, epsilon bound and
//     scan bytes without moving the session's spent counter or transcript;
//   - GET /v1/debug/top ranks the smoke workload with its attributed cost
//     vector, and GET /v1/debug/timeseries serves sampler rings;
//   - /metrics exports nonzero apex_analytics_* attribution families.
//
// It exits nonzero (with a reason) on any divergence. Run it from the
// repository root:
//
//	go run ./scripts/obssmoke
//
// It finishes in a few seconds, so it is cheap enough for every CI run.
package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/scripts/internal/smoke"
)

const (
	requestID  = "obssmoke-trace-1"
	requestID2 = "obssmoke-trace-2"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "obssmoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("obssmoke: OK — trace round-trip, slow-query log, phase metrics and pprof all answered")
}

func run() error {
	work, err := os.MkdirTemp("", "obssmoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	bin, err := smoke.BuildServer(work)
	if err != nil {
		return err
	}
	addr, err := smoke.FreeAddr()
	if err != nil {
		return err
	}
	debugAddr, err := smoke.FreeAddr()
	if err != nil {
		return err
	}
	base := "http://" + addr

	// A data dir makes commits durable, so the wal_flush phase is real;
	// -slow-query 1ns makes every request a slow-query log line.
	srv, logs, err := smoke.Start(bin, addr,
		"-data-dir", filepath.Join(work, "data"),
		"-debug-addr", debugAddr,
		"-slow-query", "1ns",
		"-timeseries-interval", "100ms")
	if err != nil {
		return err
	}
	defer srv.Process.Kill()

	if _, err := smoke.Post(base+"/v1/datasets", nil, map[string]any{
		"name": "smoke", "schema": json.RawMessage(smoke.SchemaJSON), "csv": smoke.PeopleCSV(500),
	}, http.StatusCreated); err != nil {
		return fmt.Errorf("register dataset: %w", err)
	}
	sess, err := smoke.Post(base+"/v1/sessions", nil, map[string]any{"dataset": "smoke", "budget": 1.0}, http.StatusCreated)
	if err != nil {
		return fmt.Errorf("create session: %w", err)
	}
	id, _ := sess["id"].(string)
	if id == "" {
		return fmt.Errorf("session id missing: %v", sess)
	}

	// ---- the traced query: caller-chosen ID in, same ID everywhere out.
	hdr := http.Header{"X-Request-Id": []string{requestID}}
	ans, err := smoke.Post(base+"/v1/sessions/"+id+"/query", hdr, map[string]any{"query": smoke.QueryText}, http.StatusOK)
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	if got, _ := ans["trace_id"].(string); got != requestID {
		return fmt.Errorf("query response trace_id = %q, want %q", got, requestID)
	}

	// Transcript provenance.
	tr, err := smoke.Get(base + "/v1/sessions/" + id + "/transcript")
	if err != nil {
		return err
	}
	entries, _ := tr["entries"].([]any)
	if len(entries) != 1 {
		return fmt.Errorf("transcript has %d entries, want 1", len(entries))
	}
	entry, _ := entries[0].(map[string]any)
	if got, _ := entry["trace_id"].(string); got != requestID {
		return fmt.Errorf("transcript entry trace_id = %q, want %q", got, requestID)
	}

	// Audit timeline attributes the spend to the request.
	audit, err := smoke.Get(base + "/v1/datasets/smoke/audit")
	if err != nil {
		return fmt.Errorf("audit view: %w", err)
	}
	events, _ := audit["events"].([]any)
	if len(events) != 1 {
		return fmt.Errorf("audit has %d events, want 1", len(events))
	}
	ev, _ := events[0].(map[string]any)
	if got, _ := ev["trace_id"].(string); got != requestID {
		return fmt.Errorf("audit event trace_id = %q, want %q", got, requestID)
	}
	if spent, _ := audit["total_spent"].(float64); spent <= 0 {
		return fmt.Errorf("audit total_spent = %v, want > 0", audit["total_spent"])
	}

	// The debug trace ring serves the trace with the pipeline phases.
	// The trace finishes just after the response is written, so poll.
	view, err := awaitTrace(base, requestID)
	if err != nil {
		return err
	}
	phases, err := flattenPhases(view)
	if err != nil {
		return err
	}
	for _, want := range []string{"queue", "prepare", "execute", "commit", "wal_flush"} {
		if !phases[want] {
			return fmt.Errorf("trace %s has no %q span (saw %v)", requestID, want, phases)
		}
	}
	fmt.Printf("obssmoke: trace %s has phases %v\n", requestID, keys(phases))

	// ---- translation plane: a second ask of the same workload must hit
	// the shared per-dataset plan cache, visible as the prepare→translate
	// span's translate_cache_hit attribute.
	hdr2 := http.Header{"X-Request-Id": []string{requestID2}}
	if _, err := smoke.Post(base+"/v1/sessions/"+id+"/query", hdr2, map[string]any{"query": smoke.QueryText}, http.StatusOK); err != nil {
		return fmt.Errorf("second query: %w", err)
	}
	view2, err := awaitTrace(base, requestID2)
	if err != nil {
		return err
	}
	tl := findSpanView(view2, "translate")
	if tl == nil {
		return fmt.Errorf("trace %s has no translate span", requestID2)
	}
	attrs, _ := tl["attrs"].(map[string]any)
	if hit, ok := attrs["translate_cache_hit"].(bool); !ok || !hit {
		return fmt.Errorf("trace %s translate span: translate_cache_hit = %v, want true", requestID2, attrs["translate_cache_hit"])
	}
	fmt.Printf("obssmoke: trace %s translate span reports translate_cache_hit=true\n", requestID2)

	// ---- analytics plane: EXPLAIN dry run, top-K attribution, timeseries.
	// EXPLAIN predicts a real plan while provably spending nothing: the
	// session's spent counter and transcript length are identical before
	// and after.
	before, err := smoke.Get(base + "/v1/sessions/" + id)
	if err != nil {
		return err
	}
	ex, err := smoke.Post(base+"/v1/sessions/"+id+"/explain", nil, map[string]any{"query": smoke.QueryText}, http.StatusOK)
	if err != nil {
		return fmt.Errorf("explain: %w", err)
	}
	if mech, _ := ex["mechanism"].(string); mech == "" {
		return fmt.Errorf("explain chose no mechanism: %v", ex)
	}
	if up, _ := ex["epsilon_upper"].(float64); up <= 0 {
		return fmt.Errorf("explain epsilon_upper = %v, want > 0", ex["epsilon_upper"])
	}
	if hit, _ := ex["translate_cache_hit"].(bool); !hit {
		return fmt.Errorf("explain after two asks misses the translation plane: %v", ex)
	}
	if sb, _ := ex["predicted_scan_bytes"].(float64); sb <= 0 {
		return fmt.Errorf("explain predicted_scan_bytes = %v, want > 0", ex["predicted_scan_bytes"])
	}
	after, err := smoke.Get(base + "/v1/sessions/" + id)
	if err != nil {
		return err
	}
	if before["spent"] != after["spent"] || before["queries"] != after["queries"] {
		return fmt.Errorf("EXPLAIN changed budget state: before spent=%v queries=%v, after spent=%v queries=%v",
			before["spent"], before["queries"], after["spent"], after["queries"])
	}
	fmt.Printf("obssmoke: explain predicts %v (eps<=%.3f, %v scan bytes) with zero spend\n",
		ex["mechanism"], ex["epsilon_upper"], ex["predicted_scan_bytes"])

	// Top-K heavy hitters: the smoke workload must surface, attributed to
	// the smoke dataset with both asks' costs folded in. Attribution rides
	// trace Finish, so poll briefly.
	if err := awaitTop(base); err != nil {
		return err
	}

	// Timeseries ring: the 100ms sampler must have landed samples with the
	// runtime and queue gauges.
	tsDeadline := time.Now().Add(5 * time.Second)
	for {
		ts, err := smoke.Get(base + "/v1/debug/timeseries")
		if err != nil {
			return err
		}
		samples, _ := ts["samples"].([]any)
		if len(samples) >= 2 {
			last, _ := samples[len(samples)-1].(map[string]any)
			values, _ := last["values"].(map[string]any)
			for _, want := range []string{"goroutines", "queue_depth_max", "requests_total"} {
				if _, ok := values[want]; !ok {
					return fmt.Errorf("timeseries sample lacks %q: %v", want, values)
				}
			}
			fmt.Printf("obssmoke: timeseries has %d samples (latest: %d gauges)\n", len(samples), len(values))
			break
		}
		if time.Now().After(tsDeadline) {
			return fmt.Errorf("timeseries never accumulated samples: %v", ts)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The slow-query log line carries the same trace ID.
	deadline := time.Now().Add(5 * time.Second)
	var slow string
	for slow == "" {
		for _, line := range strings.Split(logs(), "\n") {
			if strings.Contains(line, `"slow query"`) && strings.Contains(line, requestID) {
				slow = strings.TrimSpace(line)
			}
		}
		if slow == "" {
			if time.Now().After(deadline) {
				return fmt.Errorf("no slow-query line for %s in server logs:\n%s", requestID, logs())
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	var slowObj map[string]any
	if err := json.Unmarshal([]byte(slow[strings.Index(slow, "{"):]), &slowObj); err != nil {
		return fmt.Errorf("slow-query line is not JSON: %q: %w", slow, err)
	}
	if got, _ := slowObj["trace"].(string); got != requestID {
		return fmt.Errorf("slow-query line trace = %q, want %q", got, requestID)
	}
	if _, ok := slowObj["phases_ms"].(map[string]any); !ok {
		return fmt.Errorf("slow-query line has no phases_ms breakdown: %q", slow)
	}
	fmt.Printf("obssmoke: slow-query log line: %s\n", slow)

	// Public /metrics exports the per-phase histograms with samples.
	metrics, err := smoke.GetRaw(base + "/metrics")
	if err != nil {
		return err
	}
	if !strings.Contains(string(metrics), "apex_phase_seconds_bucket") {
		return fmt.Errorf("/metrics has no apex_phase_seconds histogram")
	}
	if !strings.Contains(string(metrics), `phase="total"`) {
		return fmt.Errorf("/metrics apex_phase_seconds has no total phase sample")
	}
	// Translation-plane counters: at least one sampling miss (the first
	// ask) and one cache hit (the second) on the smoke dataset.
	for _, want := range []string{
		`apex_translate_cache_misses{dataset="smoke"}`,
		`apex_translate_cache_hits{dataset="smoke"}`,
		`apex_analytics_requests_total{dataset="smoke"}`,
		`apex_analytics_cpu_seconds_total{dataset="smoke"}`,
		`apex_analytics_scan_bytes_total{dataset="smoke"}`,
		`apex_analytics_epsilon_total{dataset="smoke"}`,
	} {
		if !smoke.HasNonzeroSample(string(metrics), want) {
			return fmt.Errorf("/metrics has no nonzero sample for %s", want)
		}
	}
	fmt.Println("obssmoke: /metrics exports nonzero translate-cache and analytics families")

	// The private debug listener answers pprof and runtime gauges.
	dbgBase := "http://" + debugAddr
	pprofIndex, err := smoke.GetRaw(dbgBase + "/debug/pprof/")
	if err != nil {
		return fmt.Errorf("pprof index: %w", err)
	}
	if !strings.Contains(string(pprofIndex), "goroutine") {
		return fmt.Errorf("pprof index looks wrong: %.200s", pprofIndex)
	}
	dbgMetrics, err := smoke.GetRaw(dbgBase + "/metrics")
	if err != nil {
		return fmt.Errorf("debug metrics: %w", err)
	}
	if !strings.Contains(string(dbgMetrics), "apex_goroutines") {
		return fmt.Errorf("debug /metrics has no runtime gauges (apex_goroutines)")
	}

	return smoke.Stop(srv)
}

// awaitTrace polls /v1/debug/traces until the trace with the given ID
// appears (the middleware finishes it just after the response).
func awaitTrace(base, id string) (map[string]any, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := smoke.Get(base + "/v1/debug/traces?dataset=smoke")
		if err != nil {
			return nil, err
		}
		traces, _ := resp["traces"].([]any)
		for _, t := range traces {
			view, _ := t.(map[string]any)
			if view["id"] == id {
				return view, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("trace %s never appeared in /v1/debug/traces", id)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// awaitTop polls /v1/debug/top until the smoke workload surfaces with
// attributed cost. Attribution happens when the trace finishes, strictly
// after the query response, so the first poll can legitimately miss.
func awaitTop(base string) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := smoke.Get(base + "/v1/debug/top?by=workload&k=5")
		if err != nil {
			return err
		}
		entries, _ := resp["entries"].([]any)
		for _, e := range entries {
			entry, _ := e.(map[string]any)
			if entry["dataset"] != "smoke" {
				continue
			}
			cost, _ := entry["cost"].(map[string]any)
			reqs, _ := cost["requests"].(float64)
			scan, _ := cost["scan_bytes"].(float64)
			eps, _ := cost["epsilon"].(float64)
			if reqs >= 2 && scan > 0 && eps > 0 {
				fmt.Printf("obssmoke: top workload %v: %v requests, %v scan bytes, eps=%.3f\n",
					entry["key"], reqs, scan, eps)
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("smoke workload never surfaced in /v1/debug/top: %v", resp)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// flattenPhases collects span names across the trace's span tree and
// checks offsets and durations stay inside the root.
func flattenPhases(view map[string]any) (map[string]bool, error) {
	rootUS, _ := view["duration_us"].(float64)
	if rootUS <= 0 {
		return nil, fmt.Errorf("trace root duration_us = %v, want > 0", view["duration_us"])
	}
	phases := map[string]bool{}
	var walk func(spans []any) error
	walk = func(spans []any) error {
		for _, s := range spans {
			sp, _ := s.(map[string]any)
			name, _ := sp["name"].(string)
			phases[name] = true
			off, _ := sp["offset_us"].(float64)
			dur, _ := sp["duration_us"].(float64)
			if off < 0 || dur < 0 || off+dur > rootUS {
				return fmt.Errorf("span %q [%v..%v]us escapes root [0..%v]us", name, off, off+dur, rootUS)
			}
			if children, ok := sp["spans"].([]any); ok {
				if err := walk(children); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if spans, ok := view["spans"].([]any); ok {
		if err := walk(spans); err != nil {
			return nil, err
		}
	}
	return phases, nil
}

// findSpanView walks a rendered trace depth-first for a span by name.
func findSpanView(view map[string]any, name string) map[string]any {
	var walk func(spans []any) map[string]any
	walk = func(spans []any) map[string]any {
		for _, s := range spans {
			sp, _ := s.(map[string]any)
			if sp["name"] == name {
				return sp
			}
			if children, ok := sp["spans"].([]any); ok {
				if found := walk(children); found != nil {
					return found
				}
			}
		}
		return nil
	}
	if spans, ok := view["spans"].([]any); ok {
		return walk(spans)
	}
	return nil
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
