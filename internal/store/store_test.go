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
	w, _, _, err := store.OpenWAL(filepath.Join(st.Dir(), "sessions", "bad.wal"))
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

// TestLogThatDiedBeingBorn: a crash between creating a session log and
// the first fsync leaves 0..7 bytes of the magic. Every such file is one
// thing — an empty log with a torn tail — to both readers: recovery
// quarantines it once (no meta header survived) and never reports it
// again, the scrubber's read calls it torn, not corrupt. Eight bytes
// that are not the magic are somebody else's file: refused, left alone.
func TestLogThatDiedBeingBorn(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sessions := filepath.Join(st.Dir(), "sessions")
	files := map[string]string{
		"born0": "",
		"born4": "APEX",
		"born8": "APEXWAL1",
		"alien": "NOTAWAL1",
	}
	for id, content := range files {
		path := filepath.Join(sessions, id+".wal")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		frames, torn, err := store.ReadWALFrames(path)
		if id == "alien" {
			if err == nil || !strings.Contains(err.Error(), "bad magic") {
				t.Fatalf("ReadWALFrames(%s) err = %v, want bad magic", id, err)
			}
			continue
		}
		wantTorn := int64(len(content))
		if len(content) == len("APEXWAL1") {
			wantTorn = 0 // a complete, empty log
		}
		if err != nil || len(frames) != 0 || torn != wantTorn {
			t.Fatalf("ReadWALFrames(%s) = %d frames, torn %d, err %v; want 0 frames, torn %d", id, len(frames), torn, err, wantTorn)
		}
	}

	recovered, skipped, err := st.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 || len(skipped) != 4 {
		t.Fatalf("first pass: recovered %d, skipped %v", len(recovered), skipped)
	}
	for _, s := range skipped { // id order: alien, born0, born4, born8
		want := "empty log (no meta header survived)"
		if strings.HasPrefix(s, "alien:") {
			want = "not a WAL (bad magic)"
		}
		if !strings.Contains(s, want) {
			t.Fatalf("skipped %q, want reason %q", s, want)
		}
	}
	for id, content := range files {
		live, invalid := filepath.Join(sessions, id+".wal"), filepath.Join(sessions, id+".wal.invalid")
		if id == "alien" {
			if got, err := os.ReadFile(live); err != nil || string(got) != content {
				t.Fatalf("non-WAL file was touched: %q, %v", got, err)
			}
			continue
		}
		if _, err := os.Stat(invalid); err != nil {
			t.Fatalf("%s not quarantined: %v", id, err)
		}
		if _, err := os.Stat(live); !os.IsNotExist(err) {
			t.Fatalf("%s still live after quarantine (stat err %v)", id, err)
		}
	}
	// The second restart hears only about the file that is not ours.
	recovered, skipped, err = st.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 || len(skipped) != 1 || !strings.HasPrefix(skipped[0], "alien:") {
		t.Fatalf("second pass: recovered %d, skipped %v; want only the non-WAL file", len(recovered), skipped)
	}
}

// TestParentCommitSessionLogRecovers: testdata/session_c6f28c6.wal is a
// session log written by the commit before internal/durable existed
// (seed 5, two asks, the second a reuse hit). It must recover here with
// the same transcript, and this tree must write the same bytes for the
// same session — the frame format did not move.
func TestParentCommitSessionLogRecovers(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "session_c6f28c6.wal"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(st.Dir(), "sessions", "parent.wal")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	if frames, torn, err := store.ReadWALFrames(path); len(frames) != 3 || torn != 0 || err != nil {
		t.Fatalf("ReadWALFrames(fixture) = %d frames, torn %d, err %v", len(frames), torn, err)
	}
	recovered, skipped, err := st.RecoverSessions()
	if err != nil || len(skipped) != 0 || len(recovered) != 1 {
		t.Fatalf("recovered %d, skipped %v, err %v", len(recovered), skipped, err)
	}
	rec := recovered[0]
	meta := sessionMeta("parent")
	if rec.Meta != meta || rec.TruncatedBytes != 0 || len(rec.Entries) != 2 {
		t.Fatalf("meta %+v, truncated %d, %d entries", rec.Meta, rec.TruncatedBytes, len(rec.Entries))
	}
	spent, err := engine.ValidateTranscript(rec.Entries, meta.Budget)
	if err != nil || spent != rec.Entries[0].Epsilon || rec.Entries[1].Epsilon != 0 || rec.Entries[1].Answer.Mechanism != "cache" {
		t.Fatalf("transcript: spent %v, err %v, entries %+v", spent, err, rec.Entries)
	}
	if err := rec.Log.Close(); err != nil {
		t.Fatal(err)
	}

	// The reverse direction: log the recovered transcript through this
	// tree's writer and compare with the bytes the parent wrote.
	st2, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	slog, err := st2.CreateSessionLog(meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rec.Entries {
		if err := slog.AppendEntry(context.Background(), e); err != nil {
			t.Fatal(err)
		}
	}
	if err := slog.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(filepath.Join(st2.Dir(), "sessions", "parent.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, fixture) {
		t.Fatal("the session re-logged by this tree differs from the parent commit's bytes")
	}
}
