package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// TestExplainZeroEpsilonDifferential is the differential proof of the
// EXPLAIN zero-ε guarantee on a durable server: the session's spent
// counter, its transcript and its on-disk WAL must be byte-identical
// before and after any number of EXPLAIN calls — while the explains
// themselves return real predictions.
func TestExplainZeroEpsilonDifferential(t *testing.T) {
	srv, c, _ := scrubServer(t, 200)
	sess, err := c.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 1})
	if err != nil {
		t.Fatal(err)
	}

	// First explain runs against cold caches; it must report the misses
	// and still predict a concrete plan.
	ex, err := c.Explain(sess.ID, easyQuery)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Denied || ex.Mechanism == "" || ex.EpsilonUpper <= 0 {
		t.Fatalf("cold explain = %+v", ex)
	}
	if ex.TransformCacheHit || ex.TranslateCacheHit {
		t.Fatalf("cold explain reports warm caches: %+v", ex)
	}
	if ex.Remaining != 1 || ex.Spent != 0 {
		t.Fatalf("cold explain budget view: spent %v remaining %v", ex.Spent, ex.Remaining)
	}
	// (Not exact: age's lanes outnumber 200/8, so its untried projection
	// build may abort.)
	if ex.ScanPlanExact || ex.PredictedScanBytes <= 0 || len(ex.PlannedColumns) != 1 || ex.PlannedColumns[0] != "age" {
		t.Fatalf("scan plan = %+v", ex)
	}
	if len(ex.Choices) == 0 {
		t.Fatalf("explain lists no mechanism choices: %+v", ex)
	}

	// The explain warmed the workload transform cache and the shared
	// translation plane — exactly like a real Prepare would.
	ex2, err := c.Explain(sess.ID, easyQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !ex2.TransformCacheHit || !ex2.TranslateCacheHit {
		t.Fatalf("second explain still cold: %+v", ex2)
	}

	// Commit one real query so the differential runs against a non-empty
	// transcript and WAL.
	ans, err := c.Query(sess.ID, easyQuery)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Denied {
		t.Fatalf("query denied: %s", ans.Reason)
	}

	live, ok := srv.Sessions().Get(sess.ID)
	if !ok {
		t.Fatal("session vanished")
	}
	walBefore, err := os.ReadFile(live.LogPath())
	if err != nil {
		t.Fatal(err)
	}
	trBefore, err := c.Transcript(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	spentBefore := live.Engine().Spent()

	// A burst of explains: affordable, unaffordable and repeated ones.
	for i := 0; i < 5; i++ {
		for _, q := range []string{easyQuery, hardQuery} {
			if _, err := c.Explain(sess.ID, q); err != nil {
				t.Fatal(err)
			}
		}
	}

	walAfter, err := os.ReadFile(live.LogPath())
	if err != nil {
		t.Fatal(err)
	}
	if string(walBefore) != string(walAfter) {
		t.Fatalf("EXPLAIN mutated the WAL: %d bytes -> %d bytes", len(walBefore), len(walAfter))
	}
	trAfter, err := c.Transcript(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trBefore, trAfter) {
		t.Fatalf("EXPLAIN mutated the transcript:\nbefore %+v\nafter  %+v", trBefore, trAfter)
	}
	if spentAfter := live.Engine().Spent(); spentAfter != spentBefore {
		t.Fatalf("EXPLAIN spent budget: %v -> %v", spentBefore, spentAfter)
	}
}

// TestExplainPredictsDenialWithoutLoggingIt: a predicted denial is a
// report, not a transcript event — unlike a real Prepare denial, which
// consumes a transcript slot.
func TestExplainPredictsDenialWithoutLoggingIt(t *testing.T) {
	c := newTestServer(t, server.Config{})
	sess, err := c.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := c.Explain(sess.ID, hardQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Denied {
		t.Fatalf("tiny budget not predicted denied: %+v", ex)
	}
	if ex.Mechanism != "" || ex.EpsilonUpper != 0 {
		t.Fatalf("denied explain carries a chosen mechanism: %+v", ex)
	}
	// Every choice must be listed as unaffordable, so the analyst sees
	// what the cheapest option would have cost.
	if len(ex.Choices) == 0 {
		t.Fatal("denied explain lists no choices")
	}
	for _, ch := range ex.Choices {
		if ch.Affordable {
			t.Fatalf("denied explain has an affordable choice: %+v", ch)
		}
		if ch.EpsilonUpper <= ex.Remaining {
			t.Fatalf("choice %+v fits remaining %v but was predicted denied", ch, ex.Remaining)
		}
	}
	tr, err := c.Transcript(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Entries) != 0 || tr.Spent != 0 {
		t.Fatalf("explain-predicted denial reached the transcript: %+v", tr)
	}

	// Parse and validation failures surface as structured 400s.
	if _, err := c.Explain(sess.ID, "NOT A QUERY"); !isAPIError(err, 400, server.CodeParseError) {
		t.Fatalf("malformed explain: %v", err)
	}
	if _, err := c.Explain("nope", easyQuery); !isAPIError(err, 404, server.CodeNotFound) {
		t.Fatalf("unknown session explain: %v", err)
	}
}

// metricValue extracts one sample value from a /metrics exposition body.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in /metrics", series)
	return 0
}

// TestCostVectorScanBytesExact: the analytics plane's attributed scan
// bytes must equal the scheduler's BatchStats accounting exactly — the
// per-request shares are an attribution of the same traffic, not an
// estimate. Cross-checked via one /metrics scrape:
// apex_analytics_scan_bytes_total == apex_scan_bytes_total per dataset.
func TestCostVectorScanBytesExact(t *testing.T) {
	c := newTestServer(t, server.Config{})
	sess, err := c.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(sess.ID, easyQuery); err != nil {
		t.Fatal(err)
	}

	// Attribution happens when the trace finishes, which can land just
	// after the response: poll until the request is attributed.
	deadline := time.Now().Add(5 * time.Second)
	var body string
	for {
		resp, err := http.Get(c.BaseURL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		body = string(raw)
		if metricValue(t, body, `apex_analytics_requests_total{dataset="people"}`) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request never attributed by the analytics plane")
		}
		time.Sleep(10 * time.Millisecond)
	}

	scanned := metricValue(t, body, `apex_scan_bytes_total{dataset="people"}`)
	attributed := metricValue(t, body, `apex_analytics_scan_bytes_total{dataset="people"}`)
	if scanned <= 0 {
		t.Fatalf("no scan traffic recorded (scan=%v)", scanned)
	}
	if attributed != scanned {
		t.Fatalf("attributed scan bytes %v != BatchStats accounting %v", attributed, scanned)
	}

	// The same figure must appear in the workload heavy-hitter entry, and
	// match what EXPLAIN predicted for this workload.
	ex, err := c.Explain(sess.ID, easyQuery)
	if err != nil {
		t.Fatal(err)
	}
	top, err := c.Top("workload", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Entries) == 0 {
		t.Fatal("no workload entries")
	}
	e := top.Entries[0]
	if e.Key != ex.Workload {
		t.Fatalf("top workload %q != explain workload %q", e.Key, ex.Workload)
	}
	if e.Cost.ScanBytes != int64(scanned) {
		t.Fatalf("workload entry scan bytes %d != scheduler accounting %v", e.Cost.ScanBytes, scanned)
	}
	if !ex.ScanPlanExact || ex.PredictedScanBytes != int64(scanned) {
		t.Fatalf("explain predicted %d scan bytes, scheduler read %v", ex.PredictedScanBytes, scanned)
	}
	if e.Cost.Epsilon <= 0 || e.Dataset != "people" || e.Query == "" {
		t.Fatalf("workload entry = %+v", e)
	}
}

// TestScanBytesExactOnProjectionOutcomes: on a durable server the table
// is sealed and packed, so a column set may be answered from a
// projection — and EXPLAIN's predicted_scan_bytes must still equal what
// the query then reads, to the byte, whichever way it goes: the workload
// that builds the projection (each column of the set, once), the next
// workload over the same set (the projection's own lanes and weights, a
// fraction of the column), and a set with too many distinct tuples for
// this table (the columns, as ever). The first workload over that last set
// is the exception: its build aborts, reading the columns once more, and
// EXPLAIN, asked before the set was tried, says it is not exact. Each is
// counted under its outcome, and the analytics plane's attribution still
// sums to the scheduler's total.
func TestScanBytesExactOnProjectionOutcomes(t *testing.T) {
	_, c, _ := scrubServer(t, 2000) // age: at most 129 lanes ≤ 2000/8; age × state: ~300 tuples are not
	sess, err := c.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	scrape := func() string {
		t.Helper()
		resp, err := http.Get(c.BaseURL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	const scanBytes = `apex_scan_bytes_total{dataset="people"}`
	var read []float64 // bytes read per step
	var total float64  // the counter so far; its series appears with the first query
	for _, step := range []struct {
		outcome, query string
		tried          bool    // the set's outcome is known before the query
		count          float64 // the outcome's counter after the step
	}{
		{"build", "BIN D ON COUNT(*) WHERE W = { age BETWEEN 0 AND 50, age BETWEEN 50 AND 100 } ERROR 100 CONFIDENCE 0.95;", true, 1},
		{"hit", "BIN D ON COUNT(*) WHERE W = { age BETWEEN 0 AND 30, age BETWEEN 30 AND 100 } ERROR 100 CONFIDENCE 0.95;", true, 1},
		{"ineligible", "BIN D ON COUNT(*) WHERE W = { age BETWEEN 0 AND 50 AND state = 'CA', age BETWEEN 50 AND 100 AND state = 'CA' } ERROR 100 CONFIDENCE 0.95;", false, 1},
		{"ineligible", "BIN D ON COUNT(*) WHERE W = { age BETWEEN 0 AND 40 AND state = 'NY', age BETWEEN 40 AND 100 AND state = 'NY' } ERROR 100 CONFIDENCE 0.95;", true, 2},
	} {
		ex, err := c.Explain(sess.ID, step.query)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Query(sess.ID, step.query); err != nil {
			t.Fatal(err)
		}
		body := scrape()
		got := metricValue(t, body, scanBytes) - total
		total += got
		if !step.tried {
			// The aborted build's pass, then the row pass.
			if ex.ScanPlanExact || got <= 0 || float64(2*ex.PredictedScanBytes) != got {
				t.Fatalf("%s, untried: explain predicted %d scan bytes (exact %v), the query read %v", step.outcome, ex.PredictedScanBytes, ex.ScanPlanExact, got)
			}
		} else if !ex.ScanPlanExact || got <= 0 || float64(ex.PredictedScanBytes) != got {
			t.Fatalf("%s: explain predicted %d scan bytes (exact %v), the query read %v", step.outcome, ex.PredictedScanBytes, ex.ScanPlanExact, got)
		}
		if n := metricValue(t, body, `apex_scan_projection_total{dataset="people",outcome="`+step.outcome+`"}`); n != step.count {
			t.Fatalf("apex_scan_projection_total{outcome=%q} = %v after its step, want %v", step.outcome, n, step.count)
		}
		read = append(read, got)
	}
	if read[1] >= read[0] {
		t.Fatalf("the projection-answered workload read %v B, the build %v B", read[1], read[0])
	}
	body := scrape()
	// The one held projection, and the remembered aborted set's key.
	if held := metricValue(t, body, `apex_scan_projection_bytes{dataset="people"}`); held != read[1]+float64(len("[0 1]")) {
		t.Fatalf("apex_scan_projection_bytes = %v, the one held projection reads as %v B", held, read[1])
	}

	deadline := time.Now().Add(5 * time.Second)
	for metricValue(t, body, `apex_analytics_requests_total{dataset="people"}`) < 4 {
		if time.Now().After(deadline) {
			t.Fatal("requests never attributed by the analytics plane")
		}
		time.Sleep(10 * time.Millisecond)
		body = scrape()
	}
	if attributed, scanned := metricValue(t, body, `apex_analytics_scan_bytes_total{dataset="people"}`), metricValue(t, body, scanBytes); attributed != scanned {
		t.Fatalf("attributed scan bytes %v != BatchStats accounting %v", attributed, scanned)
	}
}

// TestTopEndpointValidation: dimension and parameter validation on
// /v1/debug/top, including the strict unknown-parameter 400s.
func TestTopEndpointValidation(t *testing.T) {
	c := newTestServer(t, server.Config{})
	if _, err := c.Top("bogus", 5); !isAPIError(err, 400, server.CodeBadRequest) {
		t.Fatalf("bogus dimension: %v", err)
	}
	for _, path := range []string{
		"/v1/debug/top?k=0", "/v1/debug/top?k=x", "/v1/debug/top?by=workload&bogus=1",
		"/v1/debug/timeseries?n=-1", "/v1/debug/timeseries?window=5",
		"/v1/debug/traces?mindur=50ms", "/v1/debug/traces?dataset=people&foo=bar",
	} {
		resp, err := http.Get(c.BaseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		var e server.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: body not a JSON error: %v", path, err)
		}
		if resp.StatusCode != http.StatusBadRequest || e.Code != server.CodeBadRequest {
			t.Fatalf("%s: HTTP %d code %q, want 400 %q", path, resp.StatusCode, e.Code, server.CodeBadRequest)
		}
		if e.TraceID == "" {
			t.Fatalf("%s: error body lacks trace_id", path)
		}
	}
	// Valid filters still pass.
	if _, err := c.Traces("people", "", 0, 5); err != nil {
		t.Fatalf("valid trace filters rejected: %v", err)
	}
	if _, err := c.Top("", 0); err != nil {
		t.Fatalf("default top rejected: %v", err)
	}
}

// TestTimeseriesEndpoint: a fast-paced sampler fills the ring and the
// endpoint serves it oldest-first with the configured interval.
func TestTimeseriesEndpoint(t *testing.T) {
	c := newTestServer(t, server.Config{
		Analytics: server.AnalyticsConfig{TimeseriesWindow: 32, TimeseriesInterval: 5 * time.Millisecond},
	})
	sess, err := c.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(sess.ID, easyQuery); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		ts, err := c.Timeseries(0)
		if err != nil {
			t.Fatal(err)
		}
		if ts.IntervalMS != 5 {
			t.Fatalf("interval_ms = %d", ts.IntervalMS)
		}
		if len(ts.Samples) >= 3 {
			s := ts.Samples[len(ts.Samples)-1]
			if _, ok := s.Values["goroutines"]; !ok {
				t.Fatalf("sample lacks runtime gauges: %+v", s.Values)
			}
			if _, ok := s.Values["queue_depth_max"]; !ok {
				t.Fatalf("sample lacks queue depth: %+v", s.Values)
			}
			if s.Values["requests_total"] < 1 {
				// The sampler may not have seen the attributed request yet.
				if time.Now().After(deadline) {
					t.Fatalf("requests_total never reached 1: %+v", s.Values)
				}
				time.Sleep(10 * time.Millisecond)
				continue
			}
			if !ts.Samples[0].At.Before(s.At) {
				t.Fatal("samples not oldest-first")
			}
			limited, err := c.Timeseries(2)
			if err != nil {
				t.Fatal(err)
			}
			if len(limited.Samples) != 2 {
				t.Fatalf("Timeseries(2) = %d samples", len(limited.Samples))
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("timeseries ring never filled")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDebugConfigRoundTrip: the slow-query threshold is runtime-
// adjustable through /v1/debug/config, takes effect on the live tracer,
// and bad updates are rejected without partial application.
func TestDebugConfigRoundTrip(t *testing.T) {
	c := newTestServer(t, server.Config{})
	cfg, err := c.DebugConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SlowQuery != "0s" {
		t.Fatalf("initial slow_query = %q", cfg.SlowQuery)
	}
	if cfg.RecorderDir != "" || cfg.RecorderP99 != "" {
		t.Fatalf("recorder fields on a recorder-less server: %+v", cfg)
	}

	updated, err := c.SetDebugConfig(server.DebugConfig{SlowQuery: "250ms"})
	if err != nil {
		t.Fatal(err)
	}
	if updated.SlowQuery != "250ms" {
		t.Fatalf("updated slow_query = %q", updated.SlowQuery)
	}
	if cfg, err = c.DebugConfig(); err != nil || cfg.SlowQuery != "250ms" {
		t.Fatalf("slow_query did not stick: %+v %v", cfg, err)
	}

	// Invalid values are structured 400s.
	if _, err := c.SetDebugConfig(server.DebugConfig{SlowQuery: "soon"}); !isAPIError(err, 400, server.CodeBadRequest) {
		t.Fatalf("bad duration: %v", err)
	}
	if _, err := c.SetDebugConfig(server.DebugConfig{SlowQuery: "-1s"}); !isAPIError(err, 400, server.CodeBadRequest) {
		t.Fatalf("negative duration: %v", err)
	}
	// Recorder knobs on a server without a recorder are rejected, and the
	// slow threshold is untouched by the failed update.
	qd := 5
	if _, err := c.SetDebugConfig(server.DebugConfig{RecorderQueueDepth: &qd}); !isAPIError(err, 400, server.CodeBadRequest) {
		t.Fatalf("recorder update without recorder: %v", err)
	}
	if cfg, err = c.DebugConfig(); err != nil || cfg.SlowQuery != "250ms" {
		t.Fatalf("failed update mutated config: %+v %v", cfg, err)
	}

	// Disabling via "0s" works too.
	if updated, err = c.SetDebugConfig(server.DebugConfig{SlowQuery: "0s"}); err != nil || updated.SlowQuery != "0s" {
		t.Fatalf("disable: %+v %v", updated, err)
	}
}

// TestAnalyticsDisabled: with the plane off, the endpoints answer 404 and
// nothing is collected — but tracing and the rest of the API still work.
func TestAnalyticsDisabled(t *testing.T) {
	c := newTestServer(t, server.Config{Analytics: server.AnalyticsConfig{Disable: true}})
	sess, err := c.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(sess.ID, easyQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Top("workload", 5); !isAPIError(err, 404, server.CodeNotFound) {
		t.Fatalf("top on disabled plane: %v", err)
	}
	if _, err := c.Timeseries(0); !isAPIError(err, 404, server.CodeNotFound) {
		t.Fatalf("timeseries on disabled plane: %v", err)
	}
	// EXPLAIN is an engine feature, not an analytics one: still available.
	if ex, err := c.Explain(sess.ID, easyQuery); err != nil || ex.Mechanism == "" {
		t.Fatalf("explain with analytics off: %+v %v", ex, err)
	}
	if _, err := c.Traces("", "", 0, 5); err != nil {
		t.Fatalf("traces with analytics off: %v", err)
	}
}

// TestFlightRecorderEndToEnd: a server wired with a recorder and an
// aggressive latency trigger captures a bundle when the threshold is
// crossed, and the runtime threshold update round-trips through
// /v1/debug/config.
func TestFlightRecorderEndToEnd(t *testing.T) {
	dir := t.TempDir()
	c := newTestServer(t, server.Config{
		Analytics: server.AnalyticsConfig{
			TimeseriesWindow:   64,
			TimeseriesInterval: 5 * time.Millisecond,
			Recorder: server.RecorderConfig{
				Dir:                dir,
				CPUProfileDuration: 5 * time.Millisecond,
				Cooldown:           time.Millisecond,
				P99Threshold:       time.Nanosecond, // any request breaches
			},
		},
	})
	cfg, err := c.DebugConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.RecorderDir != dir || cfg.RecorderP99 != "1ns" {
		t.Fatalf("recorder config = %+v", cfg)
	}

	sess, err := c.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(sess.ID, easyQuery); err != nil {
		t.Fatal(err)
	}
	// The sampler tick drives the recorder check; wait for a bundle.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ents, _ := os.ReadDir(dir)
		if len(ents) > 0 {
			if !strings.HasPrefix(ents[0].Name(), "incident-") {
				t.Fatalf("unexpected bundle name %q", ents[0].Name())
			}
			if _, err := os.Stat(dir + "/" + ents[0].Name() + "/meta.json"); err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no incident bundle captured")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Raise the thresholds at runtime and verify the round trip.
	qd := 100
	updated, err := c.SetDebugConfig(server.DebugConfig{RecorderP99: "10s", RecorderQueueDepth: &qd})
	if err != nil {
		t.Fatal(err)
	}
	if updated.RecorderP99 != "10s" || updated.RecorderQueueDepth == nil || *updated.RecorderQueueDepth != 100 {
		t.Fatalf("updated recorder config = %+v", updated)
	}
}
