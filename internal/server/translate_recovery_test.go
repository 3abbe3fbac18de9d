package server_test

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/store"
)

// End-to-end recovery for the translation plane: a restarted server must
// load persisted translation plans from the dataset sidecar and serve
// previously translated workloads without re-sampling, at the same ε.

// startTranslateServer is startDurableServer with the registry and store
// kept visible, so the test can inspect translate stats and the sidecar.
func startTranslateServer(t *testing.T, dir string) (*client.Client, *server.Registry, *store.Store, []server.DatasetRecovery) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	reg.AttachStore(st)
	recovered, skipped, err := reg.RecoverDatasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("catalog recovery skipped: %v", skipped)
	}
	srv := server.New(reg, server.Config{AllowSeeds: true, Store: st})
	if _, skipped, err := srv.RecoverSessions(st); err != nil {
		t.Fatal(err)
	} else if len(skipped) != 0 {
		t.Fatalf("recovery skipped sessions: %v", skipped)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return client.New(ts.URL), reg, st, recovered
}

func TestRestartLoadsTranslationSidecar(t *testing.T) {
	dir := t.TempDir()

	// ---- first life: ingest, translate one workload, answer it.
	c1, reg1, st1, _ := startTranslateServer(t, dir)
	if _, err := c1.AddDataset(server.AddDatasetRequest{
		Name:   "people",
		Schema: peopleSchema(t),
		CSV:    peopleCSV(200, 1),
	}); err != nil {
		t.Fatal(err)
	}
	sess1, err := c1.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ans1, err := c1.Query(sess1.ID, easyQuery)
	if err != nil {
		t.Fatal(err)
	}
	if ans1.Denied {
		t.Fatalf("first query denied: %s", ans1.Reason)
	}

	stats1 := reg1.TranslateStats()
	if len(stats1) != 1 || stats1[0].Stats.Misses < 1 {
		t.Fatalf("first life translate stats: %+v, want at least one sampling miss", stats1)
	}
	sidecar := filepath.Join(st1.DatasetDir("people"), store.TranslateSidecarFile)
	if _, err := os.Stat(sidecar); err != nil {
		t.Fatalf("translation sidecar not persisted: %v", err)
	}

	// ---- crash (no shutdown), then second life over the same dir.
	c2, reg2, _, recovered := startTranslateServer(t, dir)
	if len(recovered) != 1 || recovered[0].Name != "people" {
		t.Fatalf("recovered datasets: %+v", recovered)
	}
	if recovered[0].TranslatePlans < 1 {
		t.Fatalf("recovery loaded %d translation plans, want ≥1", recovered[0].TranslatePlans)
	}
	if st := reg2.TranslateStats(); len(st) != 1 || st[0].Stats.Loads < 1 {
		t.Fatalf("second life translate stats after recovery: %+v, want sidecar loads", st)
	}

	// The same workload in a fresh session must be served from the loaded
	// plans — zero sampling misses — and, with the same session seed, the
	// whole answer (ε and noisy counts) is bit-identical to the first life.
	sess2, err := c2.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ans2, err := c2.Query(sess2.ID, easyQuery)
	if err != nil {
		t.Fatal(err)
	}
	if ans2.Denied {
		t.Fatalf("second-life query denied: %s", ans2.Reason)
	}
	if st := reg2.TranslateStats(); st[0].Stats.Misses != 0 {
		t.Fatalf("second life re-sampled despite the sidecar: %+v", st[0].Stats)
	}
	if ans2.Epsilon != ans1.Epsilon {
		t.Fatalf("ε changed across restart: %v vs %v", ans2.Epsilon, ans1.Epsilon)
	}
	if len(ans2.Counts) != len(ans1.Counts) {
		t.Fatalf("counts shape changed: %v vs %v", ans2.Counts, ans1.Counts)
	}
	for i := range ans1.Counts {
		if ans2.Counts[i] != ans1.Counts[i] {
			t.Fatalf("count[%d] changed across restart: %v vs %v", i, ans2.Counts[i], ans1.Counts[i])
		}
	}
}

// TestRestartServesNeverSeenTextOfKnownMatrix: plans are keyed by the
// query matrix, not the predicate text, so a second process life serves a
// predicate text no process has ever seen — same bins, slid and stretched
// — straight from the sidecar: zero sampling misses, EXPLAIN reads the
// translation plane as warm, and the ε matches the first life's (same
// matrix, same accuracy requirement).
func TestRestartServesNeverSeenTextOfKnownMatrix(t *testing.T) {
	const (
		seenQuery  = "BIN D ON COUNT(*) WHERE W = { age BETWEEN 10 AND 40, age BETWEEN 40 AND 70 } ERROR 100 CONFIDENCE 0.95;"
		freshQuery = "BIN D ON COUNT(*) WHERE W = { age BETWEEN 12 AND 33, age BETWEEN 33 AND 81 } ERROR 100 CONFIDENCE 0.95;"
		// Bins starting on the domain minimum have no "below" partition:
		// a different matrix, which the sidecar does not hold.
		otherQuery = "BIN D ON COUNT(*) WHERE W = { age BETWEEN 0 AND 33, age BETWEEN 33 AND 81 } ERROR 100 CONFIDENCE 0.95;"
	)
	dir := t.TempDir()

	c1, reg1, _, _ := startTranslateServer(t, dir)
	if _, err := c1.AddDataset(server.AddDatasetRequest{
		Name:   "people",
		Schema: peopleSchema(t),
		CSV:    peopleCSV(200, 1),
	}); err != nil {
		t.Fatal(err)
	}
	sess1, err := c1.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ans1, err := c1.Query(sess1.ID, seenQuery)
	if err != nil || ans1.Denied {
		t.Fatalf("first-life query: err=%v ans=%+v", err, ans1)
	}
	misses1 := reg1.TranslateStats()[0].Stats.Misses
	if misses1 < 1 {
		t.Fatal("first life never sampled")
	}

	c2, reg2, _, recovered := startTranslateServer(t, dir)
	if len(recovered) != 1 || int64(recovered[0].TranslatePlans) != misses1 {
		t.Fatalf("recovered %+v, want the %d plans the first life computed", recovered, misses1)
	}
	sess2, err := c2.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := c2.Explain(sess2.ID, freshQuery)
	if err != nil {
		t.Fatal(err)
	}
	if ex.TransformCacheHit || !ex.TranslateCacheHit {
		t.Fatalf("EXPLAIN of a never-seen text over a known matrix: transform hit=%v translate hit=%v, want false/true",
			ex.TransformCacheHit, ex.TranslateCacheHit)
	}
	ans2, err := c2.Query(sess2.ID, freshQuery)
	if err != nil || ans2.Denied {
		t.Fatalf("second-life query: err=%v ans=%+v", err, ans2)
	}
	if st := reg2.TranslateStats()[0].Stats; st.Misses != 0 || st.Hits < 1 {
		t.Fatalf("second life sampled for a known matrix: %+v", st)
	}
	if ans2.Epsilon != ans1.Epsilon {
		t.Fatalf("ε for one matrix changed across restart and text: %v vs %v", ans2.Epsilon, ans1.Epsilon)
	}

	// The control: a matrix the sidecar has not seen is cold, and sampled.
	if ex, err = c2.Explain(sess2.ID, otherQuery); err != nil || ex.TranslateCacheHit {
		t.Fatalf("EXPLAIN of an unknown matrix: err=%v translate hit=%v, want false", err, ex != nil && ex.TranslateCacheHit)
	}
	if st := reg2.TranslateStats()[0].Stats; st.Misses < 1 {
		t.Fatalf("unknown matrix was not sampled: %+v", st)
	}
}

func TestCorruptTranslationSidecarQuarantinedOnRecovery(t *testing.T) {
	dir := t.TempDir()

	c1, _, st1, _ := startTranslateServer(t, dir)
	if _, err := c1.AddDataset(server.AddDatasetRequest{
		Name:   "people",
		Schema: peopleSchema(t),
		CSV:    peopleCSV(100, 2),
	}); err != nil {
		t.Fatal(err)
	}
	sess, err := c1.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Query(sess.ID, easyQuery); err != nil {
		t.Fatal(err)
	}
	sidecar := filepath.Join(st1.DatasetDir("people"), store.TranslateSidecarFile)
	data, err := os.ReadFile(sidecar)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(sidecar, data, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, reg2, _, _ := startTranslateServer(t, dir)
	if _, err := os.Stat(sidecar + ".quarantined"); err != nil {
		t.Fatalf("corrupt sidecar not quarantined: %v", err)
	}
	if st := reg2.TranslateStats(); len(st) != 1 || st[0].Stats.Rebuilds != 1 {
		t.Fatalf("translate stats after corrupt recovery: %+v, want one rebuild", st)
	}
	// Service continues: the workload is recomputed (canonical seeds make
	// it bit-identical), not refused.
	sess2, err := c2.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ans, err := c2.Query(sess2.ID, easyQuery); err != nil || ans.Denied {
		t.Fatalf("query after quarantine: err=%v denied=%v", err, ans != nil && ans.Denied)
	}
}
