package server_test

import (
	"bufio"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/server"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// TestMetricsExpositionLint scrapes a live /metrics endpoint — after
// enough traffic to populate every family, including the per-phase
// latency histograms — and lints the Prometheus exposition format line by
// line: well-formed metric and label names, exactly one HELP/TYPE pair
// per family, TYPE declared before its samples, properly escaped label
// values, parseable sample values. A malformed line here is invisible in
// unit tests but breaks real scrapers, so the whole surface is checked.
func TestMetricsExpositionLint(t *testing.T) {
	c := newTestServer(t, server.Config{})
	sess, err := c.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	// One answered query and one parse error: both the success and the
	// error counters get samples.
	if _, err := c.Query(sess.ID, binQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(sess.ID, "NOT A QUERY"); err == nil {
		t.Fatal("malformed query unexpectedly accepted")
	}

	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics HTTP %d", resp.StatusCode)
	}
	lintExposition(t, resp.Body)
}

// lintExposition validates one exposition-format payload.
func lintExposition(t *testing.T, r io.Reader) {
	t.Helper()
	helpSeen := map[string]bool{}
	typeSeen := map[string]string{}
	sampleFamilies := map[string]bool{}
	var families, samples int

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Errorf("line %d: HELP without text: %q", lineno, line)
				continue
			}
			if !metricNameRe.MatchString(name) {
				t.Errorf("line %d: malformed metric name %q in HELP", lineno, name)
			}
			if helpSeen[name] {
				t.Errorf("line %d: duplicate HELP for %q", lineno, name)
			}
			helpSeen[name] = true
			families++
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Errorf("line %d: malformed TYPE line: %q", lineno, line)
				continue
			}
			name, typ := fields[0], fields[1]
			if !metricNameRe.MatchString(name) {
				t.Errorf("line %d: malformed metric name %q in TYPE", lineno, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("line %d: unknown metric type %q", lineno, typ)
			}
			if _, dup := typeSeen[name]; dup {
				t.Errorf("line %d: duplicate TYPE for %q", lineno, name)
			}
			if sampleFamilies[name] {
				t.Errorf("line %d: TYPE for %q appears after its samples", lineno, name)
			}
			typeSeen[name] = typ
		case strings.HasPrefix(line, "#"):
			t.Errorf("line %d: unknown comment form: %q", lineno, line)
		default:
			name := lintSampleLine(t, lineno, line)
			if name != "" {
				samples++
				sampleFamilies[familyOf(name, typeSeen)] = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// Cross checks: every family declares both HELP and TYPE; every
	// sample belongs to a declared family.
	for name := range helpSeen {
		if _, ok := typeSeen[name]; !ok {
			t.Errorf("family %q has HELP but no TYPE", name)
		}
	}
	for name := range typeSeen {
		if !helpSeen[name] {
			t.Errorf("family %q has TYPE but no HELP", name)
		}
	}
	for fam := range sampleFamilies {
		if !helpSeen[fam] {
			t.Errorf("samples for %q have no HELP/TYPE declaration", fam)
		}
	}

	// The scrape must actually exercise the families this PR cares about.
	for _, want := range []string{
		"apex_phase_seconds", "apex_sched_requests_total", "apex_traces_recorded_total",
		"apex_translate_cache_hits", "apex_translate_cache_misses",
		"apex_translate_cache_loads", "apex_translate_cache_rebuilds",
		"apex_ready", "apex_invariant_violations_total",
		"apex_scrub_cycles_total", "apex_scrub_checks_total",
		"apex_scrub_last_cycle_clean", "apex_scrub_quarantines_total",
		"apex_dataset_budget_remaining_epsilon",
		"apex_dataset_budget_burn_epsilon_per_second",
		"apex_dataset_budget_exhausted_seconds",
		"apex_scan_bytes_total", "apex_scan_rows_total", "apex_scan_fallback_total",
		"apex_dataset_columns",
		"apex_session_ledger_entries", "apex_transcript_read_seconds",
		"apex_transcript_read_errors_total",
		"apex_analytics_requests_total", "apex_analytics_cpu_seconds_total",
		"apex_analytics_queue_seconds_total", "apex_analytics_translate_seconds_total",
		"apex_analytics_scan_bytes_total", "apex_analytics_epsilon_total",
		"apex_analytics_denied_total", "apex_analytics_cache_hits_total",
	} {
		if !helpSeen[want] {
			t.Errorf("/metrics is missing the %q family", want)
		}
	}
	if families == 0 || samples == 0 {
		t.Fatalf("lint saw %d families and %d samples — empty scrape", families, samples)
	}
}

// familyOf maps a sample's metric name back to its family, folding the
// _bucket/_sum/_count series of a histogram onto the declared base name.
func familyOf(name string, typeSeen map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name && typeSeen[base] == "histogram" {
			return base
		}
	}
	return name
}

// lintSampleLine checks one "name{labels} value" line, returning the
// metric name ("" when the line was too broken to parse further).
func lintSampleLine(t *testing.T, lineno int, line string) string {
	t.Helper()
	rest := line
	brace := strings.IndexByte(rest, '{')
	var name, labels string
	if brace >= 0 {
		name = rest[:brace]
		end := strings.LastIndexByte(rest, '}')
		if end < brace {
			t.Errorf("line %d: unterminated label set: %q", lineno, line)
			return ""
		}
		labels = rest[brace+1 : end]
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		var ok bool
		name, rest, ok = strings.Cut(rest, " ")
		if !ok {
			t.Errorf("line %d: sample without value: %q", lineno, line)
			return ""
		}
	}
	if !metricNameRe.MatchString(name) {
		t.Errorf("line %d: malformed metric name %q", lineno, name)
		return ""
	}
	if labels != "" {
		lintLabels(t, lineno, labels)
	}
	value := strings.Fields(rest)
	if len(value) < 1 || len(value) > 2 {
		t.Errorf("line %d: want 'value [timestamp]' after name, got %q", lineno, rest)
		return name
	}
	switch value[0] {
	case "+Inf", "-Inf", "NaN":
	default:
		if _, err := strconv.ParseFloat(value[0], 64); err != nil {
			t.Errorf("line %d: unparseable sample value %q", lineno, value[0])
		}
	}
	if len(value) == 2 {
		if _, err := strconv.ParseInt(value[1], 10, 64); err != nil {
			t.Errorf("line %d: unparseable timestamp %q", lineno, value[1])
		}
	}
	return name
}

// lintLabels parses a label set character by character, rejecting
// malformed names and unescaped quotes/newlines/backslashes in values —
// the failure mode that silently corrupts a scrape.
func lintLabels(t *testing.T, lineno int, s string) {
	t.Helper()
	i := 0
	for i < len(s) {
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			t.Errorf("line %d: label pair without '=': %q", lineno, s[i:])
			return
		}
		lname := s[i : i+eq]
		if !labelNameRe.MatchString(lname) {
			t.Errorf("line %d: malformed label name %q", lineno, lname)
			return
		}
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			t.Errorf("line %d: label %q value is not quoted", lineno, lname)
			return
		}
		i++ // opening quote
		closed := false
		for i < len(s) {
			switch s[i] {
			case '\\':
				if i+1 >= len(s) {
					t.Errorf("line %d: label %q value ends mid-escape", lineno, lname)
					return
				}
				switch s[i+1] {
				case '\\', '"', 'n':
				default:
					t.Errorf("line %d: label %q has invalid escape \\%c", lineno, lname, s[i+1])
				}
				i += 2
			case '"':
				closed = true
				i++
			case '\n':
				t.Errorf("line %d: label %q value has a raw newline", lineno, lname)
				return
			default:
				i++
			}
			if closed {
				break
			}
		}
		if !closed {
			t.Errorf("line %d: label %q value is unterminated", lineno, lname)
			return
		}
		if i < len(s) {
			if s[i] != ',' {
				t.Errorf("line %d: expected ',' between label pairs at %q", lineno, s[i:])
				return
			}
			i++
		}
	}
}
