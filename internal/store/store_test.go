package store_test

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/accuracy"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/store"
)

func testSchema(t *testing.T) *dataset.Schema {
	t.Helper()
	s, err := dataset.NewSchema(
		dataset.Attribute{Name: "age", Kind: dataset.Continuous, Min: 0, Max: 100},
		dataset.Attribute{Name: "state", Kind: dataset.Categorical, Values: []string{"CA", "NY", "TX"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const testCSV = "age,state\n12,CA\n70,NY\n44,TX\n44,CA\n"

func TestCatalogSaveLoad(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	schema := testSchema(t)
	if err := st.SaveDataset("people", schema, []byte(testCSV)); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveDataset("zoo", schema, []byte(testCSV)); err != nil {
		t.Fatal(err)
	}
	// Duplicate persists are refused.
	if err := st.SaveDataset("people", schema, []byte("age,state\n")); err == nil {
		t.Fatal("duplicate SaveDataset succeeded")
	}
	// Path escapes are refused.
	for _, bad := range []string{"", "..", "a/b", ".hidden"} {
		if err := st.SaveDataset(bad, schema, nil); err == nil {
			t.Fatalf("SaveDataset(%q) succeeded", bad)
		}
	}

	// Reopen on the same dir, as recovery does.
	st2, err := store.Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := st2.LoadDatasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("skipped: %v", skipped)
	}
	if len(recs) != 2 || recs[0].Name != "people" || recs[1].Name != "zoo" {
		t.Fatalf("recovered %+v", recs)
	}
	csvBytes, err := os.ReadFile(recs[0].CSVPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvBytes, []byte(testCSV)) {
		t.Fatalf("CSV changed: %q", csvBytes)
	}
	if recs[0].SegmentPath != "" {
		t.Fatalf("SaveDataset wrote no segment, but record points at %q", recs[0].SegmentPath)
	}
	tb, err := dataset.ReadCSV(bytes.NewReader(csvBytes), recs[0].Schema)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Size() != 4 {
		t.Fatalf("recovered table has %d rows", tb.Size())
	}
}

func TestCatalogSweepsCrashedTempDirs(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a save that crashed before rename.
	tmp := filepath.Join(st.Dir(), "catalog", ".tmp-ghost-123")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := st.LoadDatasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || len(skipped) != 0 {
		t.Fatalf("ghost dataset recovered: %+v / %v", recs, skipped)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("crashed temp dir not swept")
	}
}

func TestCatalogSkipsDamagedEntryAndServesRest(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveDataset("good", testSchema(t), []byte(testCSV)); err != nil {
		t.Fatal(err)
	}
	// A stray directory with no schema.json (operator mkdir, half-deleted
	// dataset) must not take the healthy datasets down with it.
	if err := os.MkdirAll(filepath.Join(st.Dir(), "catalog", "stray"), 0o755); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := st.LoadDatasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Name != "good" {
		t.Fatalf("recovered %+v", recs)
	}
	if len(skipped) != 1 || !strings.Contains(skipped[0], "stray") {
		t.Fatalf("skipped = %v", skipped)
	}
	// The damaged entry stays on disk for the operator.
	if _, err := os.Stat(filepath.Join(st.Dir(), "catalog", "stray")); err != nil {
		t.Fatal(err)
	}
}

func sessionMeta(id string) store.SessionMeta {
	return store.SessionMeta{
		ID:      id,
		Dataset: "people",
		Budget:  2.5,
		Mode:    "optimistic",
		Reuse:   true,
		Created: time.Date(2026, 7, 29, 10, 0, 0, 0, time.UTC),
	}
}

func askOnce(t *testing.T, eng *engine.Engine) {
	t.Helper()
	q, err := query.NewWCQ(
		[]dataset.Predicate{
			dataset.Range{Attr: "age", Lo: 0, Hi: 50},
			dataset.Range{Attr: "age", Lo: 50, Hi: 100},
		},
		accuracy.Requirement{Alpha: 50, Beta: 0.05},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Ask(q); err != nil {
		t.Fatal(err)
	}
}

func TestSessionLogRoundTrip(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta := sessionMeta("s1")
	slog, err := st.CreateSessionLog(meta)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate ids are refused while the log exists.
	if _, err := st.CreateSessionLog(meta); err == nil {
		t.Fatal("duplicate session log created")
	}

	// Drive a real engine whose commit hook writes the log, exactly as
	// the server wires it.
	tb, err := dataset.ReadCSV(strings.NewReader(testCSV), testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(tb, engine.Config{
		Budget: meta.Budget,
		Mode:   engine.Optimistic,
		Rng:    rand.New(rand.NewSource(5)),
		Reuse:  meta.Reuse,
		OnCommit: func(ctx context.Context, n int, e engine.Entry) error {
			return slog.AppendEntry(ctx, e)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	askOnce(t, eng)
	askOnce(t, eng) // second ask hits the reuse cache; also committed
	if err := slog.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, skipped, err := st.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("skipped: %v", skipped)
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered %d sessions", len(recovered))
	}
	rec := recovered[0]
	if rec.Meta != meta {
		t.Fatalf("meta changed: %+v vs %+v", rec.Meta, meta)
	}
	if rec.TruncatedBytes != 0 {
		t.Fatalf("clean log reports %d truncated bytes", rec.TruncatedBytes)
	}
	if len(rec.Entries) != 2 {
		t.Fatalf("recovered %d entries", len(rec.Entries))
	}
	re, err := engine.Replay(tb, engine.Config{
		Budget: meta.Budget, Mode: engine.Optimistic,
		Rng: rand.New(rand.NewSource(99)), Reuse: true,
	}, rec.Entries)
	if err != nil {
		t.Fatal(err)
	}
	if re.Spent() != eng.Spent() {
		t.Fatalf("replayed spend %v != live %v", re.Spent(), eng.Spent())
	}
	if err := rec.Log.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionLogTornTailRecoversToLastValidFrame(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta := sessionMeta("torn")
	slog, err := st.CreateSessionLog(meta)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := dataset.ReadCSV(strings.NewReader(testCSV), testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(tb, engine.Config{
		Budget: meta.Budget,
		Rng:    rand.New(rand.NewSource(5)),
		OnCommit: func(ctx context.Context, n int, e engine.Entry) error {
			return slog.AppendEntry(ctx, e)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	askOnce(t, eng)
	askOnce(t, eng)
	if err := slog.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash mid-write: half a frame of garbage lands on the tail.
	path := filepath.Join(st.Dir(), "sessions", "torn.wal")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recovered, skipped, err := st.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 || len(recovered) != 1 {
		t.Fatalf("recovered=%d skipped=%v", len(recovered), skipped)
	}
	rec := recovered[0]
	if rec.TruncatedBytes == 0 {
		t.Fatal("torn tail not reported")
	}
	if len(rec.Entries) != 2 {
		t.Fatalf("recovered %d entries past repair, want 2", len(rec.Entries))
	}
	// The recovered transcript still satisfies Definition 6.1.
	if _, err := engine.ValidateTranscript(rec.Entries, meta.Budget); err != nil {
		t.Fatalf("recovered transcript invalid: %v", err)
	}
	rec.Log.Close()
}

func TestRecoverQuarantinesStructurallyBrokenLogs(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// A log whose only frame is valid CRC-wise but is not a meta header.
	w, _, _, err := store.OpenWAL(filepath.Join(st.Dir(), "sessions", "bad.wal"), store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("not json")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// And a healthy one beside it.
	slog, err := st.CreateSessionLog(sessionMeta("ok"))
	if err != nil {
		t.Fatal(err)
	}
	if err := slog.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, skipped, err := st.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0].Meta.ID != "ok" {
		t.Fatalf("recovered %+v", recovered)
	}
	if len(skipped) != 1 || !strings.Contains(skipped[0], "bad") {
		t.Fatalf("skipped = %v", skipped)
	}
	recovered[0].Log.Close()
	// The broken log is quarantined, not deleted and not re-scanned.
	if _, err := os.Stat(filepath.Join(st.Dir(), "sessions", "bad.wal.invalid")); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	_, skipped2, err := st.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped2) != 0 {
		t.Fatalf("quarantined log re-scanned: %v", skipped2)
	}
}

func TestFinishedSessionsAreNotRecovered(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	slog, err := st.CreateSessionLog(sessionMeta("done"))
	if err != nil {
		t.Fatal(err)
	}
	if err := slog.Finish(); err != nil {
		t.Fatal(err)
	}
	recovered, skipped, err := st.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 || len(skipped) != 0 {
		t.Fatalf("finished session recovered: %d/%v", len(recovered), skipped)
	}
	// The audit trail survives on disk.
	if _, err := os.Stat(filepath.Join(st.Dir(), "sessions", "done.wal.closed")); err != nil {
		t.Fatalf("closed session audit file missing: %v", err)
	}
	// The id is free for a new session once the old log is retired.
	slog2, err := st.CreateSessionLog(sessionMeta("done"))
	if err != nil {
		t.Fatalf("id not reusable after Finish: %v", err)
	}
	slog2.Close()
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := store.Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

func TestAppendEntryRejectsUnserializableQuery(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	slog, err := st.CreateSessionLog(sessionMeta("f"))
	if err != nil {
		t.Fatal(err)
	}
	defer slog.Close()
	q, err := query.NewWCQ(
		[]dataset.Predicate{dataset.Func{Name: "f", Fn: func(*dataset.Schema, dataset.Tuple) bool { return true }}},
		accuracy.Requirement{Alpha: 10, Beta: 0.1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := slog.AppendEntry(context.Background(), engine.Entry{Query: q}); err == nil {
		t.Fatal("unserializable entry accepted")
	}
}
