package server_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/scrub"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/store"
)

// tcq12 renders a twelve-predicate top-k query as a fresh string, the way
// a request body arrives: the parsed predicates alias it.
func tcq12() string {
	var b strings.Builder
	b.WriteString("BIN D ON COUNT(*) WHERE W = { ")
	for i := 0; i < 12; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "age BETWEEN %d AND %d", i*8, i*8+8)
	}
	b.WriteString(" } ORDER BY COUNT(*) LIMIT 3 ERROR 60 CONFIDENCE 0.95;")
	return b.String()
}

// TestDurableSessionHeapPerEntry: a durable session keeps a ledger record
// and a frame offset per answer, not the answer — post-GC heap growth
// stays under 128 B per committed entry (the parsed query, the body it
// aliases and the answer were ~1.6 KB). The same session on a server
// without a data directory has nowhere else to keep its transcript and
// retains every entry, as before.
func TestDurableSessionHeapPerEntry(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	table, err := dataset.ReadCSV(strings.NewReader(peopleCSV(200, 1)), peopleSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	if err := reg.Add("people", table); err != nil {
		t.Fatal(err)
	}
	ds, _ := reg.Dataset("people")

	commit := func(m *server.SessionManager) (*engine.Engine, float64) {
		sess, err := m.Create("people", ds, 1e9, engine.Optimistic, 7, false)
		if err != nil {
			t.Fatal(err)
		}
		eng := sess.Engine()
		ask := func() {
			q, err := query.Parse(tcq12())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Ask(q); err != nil {
				t.Fatal(err)
			}
		}
		ask() // the dataset's shared caches fill here, not in the measurement
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			ask()
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(sess)
		return eng, (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	durable := server.NewSessionManager(0, 0)
	durable.AttachStore(st)
	eng, perEntry := commit(durable)
	t.Logf("durable session: %.0f B of heap per entry over %d entries", perEntry, n)
	if perEntry > 128 {
		t.Errorf("durable session retains %.0f B per entry, want at most 128", perEntry)
	}
	var read int
	for e, err := range eng.Entries(0) {
		if err != nil || e.Query == nil || len(e.Answer.Selected) != 12 {
			t.Fatalf("entry %d read back from the WAL: %+v, %v", read, e, err)
		}
		read++
	}
	if read != n+1 || eng.TranscriptLen() != n+1 {
		t.Fatalf("read %d entries back, ledger has %d, committed %d", read, eng.TranscriptLen(), n+1)
	}

	eng, perEntry = commit(server.NewSessionManager(0, 0))
	t.Logf("memory-only session: %.0f B of heap per entry", perEntry)
	if perEntry < 128 {
		t.Errorf("memory-only session grew %.0f B per entry: it cannot be retaining its transcript", perEntry)
	}
	entries, err := eng.Transcript()
	if err != nil || len(entries) != n+1 || entries[n].Query == nil {
		t.Fatalf("memory-only transcript: %d entries, err %v", len(entries), err)
	}
}

// rawGet returns status and body of a GET, uninterpreted.
func rawGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestTranscriptServedFromWAL: the same seeded session renders the same
// transcript bytes from memory (no data directory), from the WAL of the
// live durable server, and from the WAL after a restart; ?since= cuts the
// same entries out of each at the start, the middle, the end and past it.
func TestTranscriptServedFromWAL(t *testing.T) {
	queries := []string{easyQuery, hardQuery, tcq12(), easyQuery, hardQuery}
	drive := func(c *client.Client) string {
		sess, err := c.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 3, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			if _, err := c.Query(sess.ID, q); err != nil {
				t.Fatal(err)
			}
		}
		return sess.ID
	}
	// The session id is part of the body; everything else must match.
	body := func(base, id, since string) []byte {
		status, b := rawGet(t, base+"/v1/sessions/"+id+"/transcript"+since)
		if status != http.StatusOK {
			t.Fatalf("GET transcript%s: HTTP %d: %s", since, status, b)
		}
		return bytes.ReplaceAll(b, []byte(id), []byte("ID"))
	}

	mem := newTestServer(t, server.Config{AllowSeeds: true})
	memID := drive(mem)

	dir := t.TempDir()
	c1, url1, _, _ := startDurableServer(t, dir)
	if _, err := c1.AddDataset(server.AddDatasetRequest{Name: "people", Schema: peopleSchema(t), CSV: peopleCSV(200, 1)}); err != nil {
		t.Fatal(err)
	}
	id := drive(c1)
	sinces := []string{"", "?since=0", "?since=2", "?since=5", "?since=6"}
	live := make(map[string][]byte)
	for _, since := range sinces {
		live[since] = body(url1, id, since)
		// Commit provenance (trace id, time) differs between two servers;
		// with it cut out the memory-only rendering is the same bytes.
		if got, want := stripProvenance(t, body(mem.BaseURL, memID, since)), stripProvenance(t, live[since]); !bytes.Equal(got, want) {
			t.Errorf("%q: memory-only and WAL-served transcripts differ:\n%s\n%s", since, got, want)
		}
	}
	if !bytes.Equal(live[""], live["?since=0"]) {
		t.Error("since=0 is not the full transcript")
	}
	for since, want := range map[string]int{"": 5, "?since=2": 3, "?since=5": 0, "?since=6": 0} {
		if got := bytes.Count(live[since], []byte(`"index":`)); got != want {
			t.Errorf("%q: %d entries, want %d", since, got, want)
		}
		if !bytes.Contains(live[since], []byte(`"valid":true`)) {
			t.Errorf("%q: verdict missing: %s", since, live[since])
		}
	}

	_, url2, _, restored := startDurableServer(t, dir)
	if restored != 1 {
		t.Fatalf("restored %d sessions", restored)
	}
	for _, since := range sinces {
		if got := body(url2, id, since); !bytes.Equal(got, live[since]) {
			t.Errorf("%q: transcript changed across restart:\n%s\n%s", since, live[since], got)
		}
	}
}

// stripProvenance blanks the per-server commit provenance of a transcript
// body (trace ids and commit times), leaving every other byte.
func stripProvenance(t *testing.T, b []byte) []byte {
	t.Helper()
	for _, key := range []string{`"trace_id":"`, `"at":"`} {
		for {
			i := bytes.Index(b, []byte(key))
			if i < 0 {
				break
			}
			j := bytes.IndexByte(b[i+len(key):], '"')
			if j < 0 {
				t.Fatalf("unterminated %s in %s", key, b)
			}
			b = append(append([]byte{}, b[:i]...), b[i+len(key)+j+1:]...)
		}
	}
	return b
}

// TestTranscriptReadRacesCommits: transcript and audit reads run against
// a session that is committing the whole time. Every read is a 200 with a
// valid verdict whose entries are a gap-free prefix — a read never sees
// the append in flight behind its snapshot, and never blocks one.
func TestTranscriptReadRacesCommits(t *testing.T) {
	c, base, _, _ := startDurableServer(t, t.TempDir())
	if _, err := c.AddDataset(server.AddDatasetRequest{Name: "people", Schema: peopleSchema(t), CSV: peopleCSV(200, 1)}); err != nil {
		t.Fatal(err)
	}
	sess, err := c.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	const commits = 150
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < commits; i++ {
			if _, err := c.Query(sess.ID, tcq12()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				tr, err := c.Transcript(sess.ID)
				if err != nil || !tr.Valid {
					t.Errorf("read during commits: %+v, %v", tr, err)
					return
				}
				if len(tr.Entries) < last {
					t.Errorf("transcript shrank: %d after %d", len(tr.Entries), last)
					return
				}
				last = len(tr.Entries)
				for i, e := range tr.Entries {
					if e.Index != i || e.Query == "" {
						t.Errorf("entry %d of %d: %+v", i, len(tr.Entries), e)
						return
					}
				}
				if status, b := rawGet(t, base+"/v1/datasets/people/audit"); status != http.StatusOK {
					t.Errorf("audit during commits: HTTP %d: %s", status, b)
					return
				}
			}
		}()
	}
	wg.Wait()
	tr, err := c.Transcript(sess.ID)
	if err != nil || len(tr.Entries) != commits {
		t.Fatalf("final transcript: %d entries, err %v", len(tr.Entries), err)
	}
}

// TestTranscriptUnavailable: when the WAL of a live session is damaged
// under it — a flipped byte, a truncation — transcript and audit reads
// are HTTP 500 transcript_unavailable and counted, the session keeps
// committing (the ledger, not the file, gates admission), and the
// scrubber reports the log as a wal violation.
func TestTranscriptUnavailable(t *testing.T) {
	for _, damage := range []string{"flip", "truncate"} {
		t.Run(damage, func(t *testing.T) {
			dir := t.TempDir()
			c, base, srv, _ := startDurableServer(t, dir)
			if _, err := c.AddDataset(server.AddDatasetRequest{Name: "people", Schema: peopleSchema(t), CSV: peopleCSV(200, 1)}); err != nil {
				t.Fatal(err)
			}
			sess, err := c.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 5})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := c.Query(sess.ID, easyQuery); err != nil {
					t.Fatal(err)
				}
			}
			if tr, err := c.Transcript(sess.ID); err != nil || len(tr.Entries) != 3 {
				t.Fatalf("healthy read: %+v, %v", tr, err)
			}
			readErrs := func() float64 {
				_, metrics := rawGet(t, base+"/metrics")
				return metricValue(t, string(metrics), "apex_transcript_read_errors_total")
			}
			if n := readErrs(); n != 0 {
				t.Fatalf("read errors before any damage: %v", n)
			}

			path := filepath.Join(dir, "sessions", sess.ID+".wal")
			wal, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			switch damage {
			case "flip":
				wal[len(wal)/2] ^= 0x40
				err = os.WriteFile(path, wal, 0o644)
			case "truncate":
				err = os.Truncate(path, int64(len(wal)-10))
			}
			if err != nil {
				t.Fatal(err)
			}

			for i, url := range []string{
				base + "/v1/sessions/" + sess.ID + "/transcript",
				base + "/v1/datasets/people/audit",
			} {
				status, body := rawGet(t, url)
				if status != http.StatusInternalServerError || !bytes.Contains(body, []byte(`"code":"`+server.CodeTranscriptUnavailable+`"`)) {
					t.Fatalf("GET %s: HTTP %d: %s", url, status, body)
				}
				if n := readErrs(); n != float64(i+1) {
					t.Fatalf("apex_transcript_read_errors_total = %v after %d failed reads", n, i+1)
				}
			}
			// A read that starts past the damage touches none of it.
			if tr, err := c.TranscriptSince(sess.ID, 3); err != nil || len(tr.Entries) != 0 || !tr.Valid {
				t.Fatalf("since=len read: %+v, %v", tr, err)
			}

			before, err := c.Session(sess.ID)
			if err != nil {
				t.Fatal(err)
			}
			r, err := c.Query(sess.ID, easyQuery)
			if err != nil || r.Denied {
				t.Fatalf("commit after damage: %+v, %v", r, err)
			}
			after, err := c.Session(sess.ID)
			if err != nil || after.Queries != before.Queries+1 || !approxEq(after.Spent, before.Spent+r.Epsilon) {
				t.Fatalf("accounting after damage: %+v -> %+v, %v", before, after, err)
			}

			rep := srv.Scrubber().RunCycle()
			var wals int
			for _, v := range rep.Violations {
				if v.Kind == scrub.KindWAL && v.Session == sess.ID {
					wals++
				}
			}
			if wals == 0 {
				t.Fatalf("scrubber raised no wal violation for the damaged log: %+v", rep.Violations)
			}
		})
	}
}

// TestUndecodableEntryQuarantinedAtRecovery: a frame whose CRC is intact
// but whose payload is not an entry surfaces while the transcript streams
// into the ledger; the log is quarantined, not served.
func TestUndecodableEntryQuarantinedAtRecovery(t *testing.T) {
	dir := t.TempDir()
	c, _, _, _ := startDurableServer(t, dir)
	if _, err := c.AddDataset(server.AddDatasetRequest{Name: "people", Schema: peopleSchema(t), CSV: peopleCSV(200, 1)}); err != nil {
		t.Fatal(err)
	}
	sess, err := c.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(sess.ID, easyQuery); err != nil {
		t.Fatal(err)
	}
	// A second handle on the same file appends a well-framed non-entry,
	// as a bug in some future writer would.
	path := filepath.Join(dir, "sessions", sess.ID+".wal")
	w, frames, _, err := store.OpenWAL(path)
	if err != nil || len(frames) != 2 {
		t.Fatalf("OpenWAL: %d frames, %v", len(frames), err)
	}
	if err := w.Append([]byte(`{"query":{"kind":"???"}}`)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	reg.AttachStore(st)
	if _, _, err := reg.RecoverDatasets(); err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg, server.Config{Store: st})
	restored, skipped, err := srv.RecoverSessions(st)
	if err != nil || restored != 0 || len(skipped) != 1 || !strings.Contains(skipped[0], "entry 1") {
		t.Fatalf("restored %d, skipped %v, err %v", restored, skipped, err)
	}
	if _, err := os.Stat(path + ".invalid"); err != nil {
		t.Fatalf("undecodable log not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("undecodable log still live: %v", err)
	}
}
