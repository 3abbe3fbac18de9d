package server_test

import (
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/durable"
	"repro/internal/scrub"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/store"
)

// scrubServer starts a durable server over one dataset ("people") with
// the scrubber constructed but its background loop off — every test
// drives deterministic cycles through Scrubber().RunCycle().
func scrubServer(t *testing.T, rows int) (*server.Server, *client.Client, *store.Store) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	reg.AttachStore(st)
	if _, err := reg.AddCSV("people", peopleSchema(t), []byte(peopleCSV(rows, 7))); err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg, server.Config{Store: st, Scrub: server.ScrubConfig{IncidentLog: io.Discard}})
	if _, _, err := srv.RecoverSessions(st); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown()
	})
	return srv, client.New(ts.URL), st
}

// violationsOf filters a cycle report down to one kind.
func violationsOf(rep scrub.CycleReport, kind string) []scrub.Violation {
	var out []scrub.Violation
	for _, v := range rep.Violations {
		if v.Kind == kind {
			out = append(out, v)
		}
	}
	return out
}

// flipByte inverts one byte at off (negative = from the end).
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += int64(len(data))
	}
	data[off] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestScrubDetectsSegmentBitFlip: a bit flip in a sealed column-store
// segment is detected within one scrub cycle while the server keeps
// serving, the corrupt file is quarantined, a fresh segment is rebuilt
// from the source CSV, and readiness degrades for exactly the dirty
// cycle.
func TestScrubDetectsSegmentBitFlip(t *testing.T) {
	srv, c, st := scrubServer(t, 300)
	sess, err := c.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(sess.ID, easyQuery); err != nil {
		t.Fatal(err)
	}

	if rep := srv.Scrubber().RunCycle(); !rep.Clean() {
		t.Fatalf("healthy server scrubs dirty: %+v", rep.Violations)
	}

	segPath := filepath.Join(st.DatasetDir("people"), store.SegmentFile)
	flipByte(t, segPath, -10) // deep in the column data, past header and directory

	rep := srv.Scrubber().RunCycle()
	vs := violationsOf(rep, scrub.KindSegment)
	if len(vs) != 1 {
		t.Fatalf("want 1 segment violation, got %d (all: %+v)", len(vs), rep.Violations)
	}
	if vs[0].Dataset != "people" || vs[0].Incident == "" {
		t.Fatalf("violation lacks attribution: %+v", vs[0])
	}

	// Readiness reflects the dirty cycle, with the scrub check degraded.
	rz, err := c.Readyz()
	if err != nil {
		t.Fatal(err)
	}
	if rz.Status != server.HealthDegraded {
		t.Fatalf("readyz after dirty cycle: %q", rz.Status)
	}

	// The corrupt artifact is aside, the rebuilt segment verifies clean.
	if _, err := os.Stat(segPath + durable.QuarantineSuffix); err != nil {
		t.Fatalf("quarantined segment missing: %v", err)
	}
	if _, err := colstore.Verify(segPath); err != nil {
		t.Fatalf("rebuilt segment does not verify: %v", err)
	}

	// Service never stopped, and the next cycle is clean again.
	if _, err := c.Query(sess.ID, easyQuery); err != nil {
		t.Fatalf("query after heal: %v", err)
	}
	if rep := srv.Scrubber().RunCycle(); !rep.Clean() {
		t.Fatalf("cycle after heal still dirty: %+v", rep.Violations)
	}
	if rz, err = c.Readyz(); err != nil || rz.Status != server.HealthOK {
		t.Fatalf("readyz after heal: %v %v", rz, err)
	}
	if got := srv.Metrics().Render(); !strings.Contains(got, `apex_invariant_violations_total{kind="segment"} 1`) {
		t.Fatal("violation counter not exported")
	}
}

// TestScrubDetectsWALBitFlip: a flipped byte in a live session WAL trips
// a wal-kind violation within one cycle; the live log is never renamed
// out from under its engine.
func TestScrubDetectsWALBitFlip(t *testing.T) {
	srv, c, _ := scrubServer(t, 200)
	sess, err := c.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(sess.ID, easyQuery); err != nil {
		t.Fatal(err)
	}
	live, ok := srv.Sessions().Get(sess.ID)
	if !ok {
		t.Fatal("session vanished")
	}
	walPath := live.LogPath()
	if walPath == "" {
		t.Fatal("durable session has no WAL path")
	}
	flipByte(t, walPath, -2) // inside the last committed frame's payload

	rep := srv.Scrubber().RunCycle()
	if vs := violationsOf(rep, scrub.KindWAL); len(vs) != 1 || vs[0].Session != sess.ID {
		t.Fatalf("want 1 wal violation for %s, got %+v", sess.ID, rep.Violations)
	}
	if _, err := os.Stat(walPath); err != nil {
		t.Fatalf("live WAL was moved: %v", err)
	}
}

// TestScrubDetectsSidecarCorruption: a corrupted translation sidecar is
// detected within one cycle and healed through the cache's own
// quarantine-and-rebuild path.
func TestScrubDetectsSidecarCorruption(t *testing.T) {
	srv, _, st := scrubServer(t, 200)
	scPath := filepath.Join(st.DatasetDir("people"), store.TranslateSidecarFile)
	if err := os.WriteFile(scPath, []byte("this is not a translation sidecar"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep := srv.Scrubber().RunCycle()
	if vs := violationsOf(rep, scrub.KindSidecar); len(vs) != 1 || vs[0].Dataset != "people" {
		t.Fatalf("want 1 sidecar violation, got %+v", rep.Violations)
	}
	if _, err := os.Stat(scPath + ".quarantined"); err != nil {
		t.Fatalf("corrupt sidecar not quarantined: %v", err)
	}
}

// TestScrubTripsOnMisaccountedEngine: a spent counter that drifts from
// the transcript sum (injected through the test hook) increments
// apex_invariant_violations_total within one cycle.
func TestScrubTripsOnMisaccountedEngine(t *testing.T) {
	srv, c, _ := scrubServer(t, 200)
	sess, err := c.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(sess.ID, easyQuery); err != nil {
		t.Fatal(err)
	}
	live, _ := srv.Sessions().Get(sess.ID)
	live.Engine().TestingSkewSpent(0.25)

	rep := srv.Scrubber().RunCycle()
	if vs := violationsOf(rep, scrub.KindAccounting); len(vs) != 1 || vs[0].Session != sess.ID {
		t.Fatalf("want 1 accounting violation for %s, got %+v", sess.ID, rep.Violations)
	}
	if srv.Scrubber().Violations() == 0 {
		t.Fatal("violation total not incremented")
	}
}

// TestScrubCleanOnHealthy: on an uncorrupted server with live traffic,
// repeated cycles find nothing and the violation counter stays 0.
func TestScrubCleanOnHealthy(t *testing.T) {
	srv, c, _ := scrubServer(t, 200)
	sess, err := c.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Query(sess.ID, easyQuery); err != nil {
			t.Fatal(err)
		}
		if rep := srv.Scrubber().RunCycle(); !rep.Clean() {
			t.Fatalf("cycle %d dirty on healthy server: %+v", i, rep.Violations)
		}
	}
	if n := srv.Scrubber().Violations(); n != 0 {
		t.Fatalf("violations on healthy server: %d", n)
	}
	// The budget report agrees with the session's own accounting.
	b, err := c.Budget("people")
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.Session(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if b.Sessions != 1 || abs(b.Spent-info.Spent) > epsTol {
		t.Fatalf("budget report %+v disagrees with session %+v", b, info)
	}
}

// TestHealthEndpoints: the liveness probe always answers ok; readiness
// carries the structured check list; the budget endpoint 404s on unknown
// datasets.
func TestHealthEndpoints(t *testing.T) {
	c := newTestServer(t, server.Config{})
	hz, err := c.Healthz()
	if err != nil {
		t.Fatal(err)
	}
	if hz.Status != server.HealthOK || hz.Datasets != 2 {
		t.Fatalf("healthz: %+v", hz)
	}
	rz, err := c.Readyz()
	if err != nil {
		t.Fatal(err)
	}
	if rz.Status != server.HealthOK || len(rz.Checks) != 4 {
		t.Fatalf("readyz: %+v", rz)
	}
	// A storeless server reports the WAL-flusher check disabled, not ok.
	for _, chk := range rz.Checks {
		if chk.Name == "wal_flusher" && chk.Status != server.HealthDisabled {
			t.Fatalf("wal_flusher on storeless server: %+v", chk)
		}
	}
	if _, err := c.Budget("no-such-dataset"); err == nil {
		t.Fatal("budget for unknown dataset succeeded")
	}
	if b, err := c.Budget("people"); err != nil || b.Dataset != "people" {
		t.Fatalf("budget: %+v %v", b, err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
