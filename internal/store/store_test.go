package store_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
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

// logEntries reads the whole transcript back from an open session log.
func logEntries(t *testing.T, l *store.SessionLog) []engine.Entry {
	t.Helper()
	var out []engine.Entry
	for e, err := range l.Entries(0, l.Len()) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	return out
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
	if rec.Log.Len() != 2 {
		t.Fatalf("recovered %d entries", rec.Log.Len())
	}
	re, err := engine.Replay(tb, engine.Config{
		Budget: meta.Budget, Mode: engine.Optimistic,
		Rng: rand.New(rand.NewSource(99)), Reuse: true,
		History: rec.Log.Entries,
	}, rec.Log.Entries(0, rec.Log.Len()))
	if err != nil {
		t.Fatal(err)
	}
	// The replayed engine holds a ledger only; its transcript reads back
	// through the log and matches what the live engine retained.
	live, err := eng.Transcript()
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := re.Transcript()
	if err != nil || !reflect.DeepEqual(replayed, logEntries(t, rec.Log)) || len(replayed) != len(live) {
		t.Fatalf("replayed transcript: %d entries (live %d), err %v", len(replayed), len(live), err)
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
	entries := logEntries(t, rec.Log)
	if len(entries) != 2 {
		t.Fatalf("recovered %d entries past repair, want 2", len(entries))
	}
	// The recovered transcript still satisfies Definition 6.1.
	if _, err := engine.ValidateTranscript(entries, meta.Budget); err != nil {
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
	entries := logEntries(t, rec.Log)
	if rec.Meta != meta || rec.TruncatedBytes != 0 || len(entries) != 2 {
		t.Fatalf("meta %+v, truncated %d, %d entries", rec.Meta, rec.TruncatedBytes, len(entries))
	}
	spent, err := engine.ValidateTranscript(entries, meta.Budget)
	if err != nil || spent != entries[0].Epsilon || entries[1].Epsilon != 0 || entries[1].Answer.Mechanism != "cache" {
		t.Fatalf("transcript: spent %v, err %v, entries %+v", spent, err, entries)
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
	for _, e := range entries {
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

// TestSessionLogEntriesReadBack: the log's reader returns exactly the
// entries appended, for any [from, to) — across its internal read size,
// across a reopen, and while appends are in flight behind the range — and
// touches nothing before from: with entry 0's frame destroyed on disk,
// every range that starts after it still reads, and every range that
// includes it is an error naming the log.
func TestSessionLogEntriesReadBack(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	slog, err := st.CreateSessionLog(sessionMeta("rb"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 600 // more than two of the reader's internal reads
	label := func(i int) string { return "charge-" + strconv.Itoa(i) }
	for i := 0; i < n; i++ {
		if err := slog.AppendEntry(context.Background(), engine.Entry{Label: label(i), Epsilon: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(l *store.SessionLog, from, to int) {
		t.Helper()
		i := from
		for e, err := range l.Entries(from, to) {
			if err != nil {
				t.Fatalf("[%d, %d): entry %d: %v", from, to, i, err)
			}
			if e.Label != label(i) || e.Epsilon != float64(i) {
				t.Fatalf("[%d, %d): entry %d is %+v", from, to, i, e)
			}
			i++
		}
		if i != max(to, from) {
			t.Fatalf("[%d, %d): read up to %d", from, to, i)
		}
	}
	if slog.Len() != n {
		t.Fatalf("Len = %d, want %d", slog.Len(), n)
	}
	for _, r := range [][2]int{{0, n}, {0, 0}, {n, n}, {255, 257}, {256, 512}, {n - 1, n}, {7, 8}} {
		check(slog, r[0], r[1])
	}
	for _, err := range slog.Entries(n-1, n+1) {
		if err == nil {
			t.Fatal("read past the last entry succeeded")
		}
	}
	// An early stop is honoured: nothing is read after the consumer quits.
	for range slog.Entries(0, n) {
		break
	}

	// Readers of a fixed range race appends behind it.
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				i := 100
				for e, err := range slog.Entries(100, n) {
					if err != nil || e.Label != label(i) {
						t.Errorf("racing read: entry %d: %+v, %v", i, e, err)
						return
					}
					i++
				}
			}
		}()
	}
	for i := n; i < n+50; i++ {
		if err := slog.AppendEntry(context.Background(), engine.Entry{Label: label(i), Epsilon: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	check(slog, 0, n+50)
	if err := slog.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen the log as recovery does, then destroy entry 0's payload
	// under the live handle (byte 8 starts the meta frame; entry 0's
	// frame follows it): its CRC no longer matches.
	recovered, skipped, err := st.RecoverSessions()
	if err != nil || len(skipped) != 0 || len(recovered) != 1 {
		t.Fatalf("recovered %d, skipped %v, err %v", len(recovered), skipped, err)
	}
	live := recovered[0].Log
	defer live.Close()
	check(live, 0, n+50)
	raw, err := os.ReadFile(live.Path())
	if err != nil {
		t.Fatal(err)
	}
	entry0 := 8 + 8 + int(binary.LittleEndian.Uint32(raw[8:]))
	raw[entry0+8+2] ^= 0xff
	if err := os.WriteFile(live.Path(), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	check(live, 1, n+50)
	check(live, 300, 301)
	var failed error
	for _, err := range live.Entries(0, 2) {
		failed = err
	}
	if failed == nil || !strings.Contains(failed.Error(), live.Path()) {
		t.Fatalf("read over a destroyed frame: err = %v", failed)
	}
}
