package server_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/dataset"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/noise"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/store"
)

// v1Catalog stages a catalog entry the way a pre-v2 server left it: the
// colstore package's committed v1 fixture (schema, source CSV, full-width
// segment — no code in the tree can write that layout any more) under
// the name "legacy". It returns the data dir, the segment's path and
// bytes, and the heap table parsed from the same CSV as the reference.
func v1Catalog(t *testing.T) (dir, segPath string, v1 []byte, heap *dataset.Table) {
	t.Helper()
	return fixtureCatalog(t, filepath.Join("v1", "table.seg"))
}

// fixtureCatalog is v1Catalog for any committed segment of the v1
// fixture's rows, named relative to colstore's testdata.
func fixtureCatalog(t *testing.T, segFile string) (dir, segPath string, seg []byte, heap *dataset.Table) {
	t.Helper()
	testdata := filepath.Join("..", "colstore", "testdata")
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(testdata, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	schema := new(dataset.Schema)
	if err := json.Unmarshal(read(filepath.Join("v1", "schema.json")), schema); err != nil {
		t.Fatal(err)
	}
	csv := read(filepath.Join("v1", "table.csv"))
	heap, err := dataset.ReadCSV(bytes.NewReader(csv), schema)
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	// Heap-homed, so nothing maps the segment this registry wrote while
	// the fixture's bytes replace it.
	reg := durableRegistry(t, dir, server.StoragePolicy{MmapThreshold: -1})
	if _, err := reg.AddCSV("legacy", schema, csv); err != nil {
		t.Fatal(err)
	}
	segPath = filepath.Join(dir, "catalog", "legacy", store.SegmentFile)
	seg = read(segFile)
	if err := os.WriteFile(segPath, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, segPath, seg, heap
}

// transcriptOf drives one seeded session over the table and returns the
// Definition 6.1 transcript in the WAL's byte encoding.
func transcriptOf(t *testing.T, table *dataset.Table) []byte {
	t.Helper()
	eng, err := engine.New(table, engine.Config{Budget: 2, Rng: noise.NewRand(42), Reuse: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{
		`BIN D ON COUNT(*) WHERE W = { age BETWEEN 0 AND 50, age BETWEEN 50 AND 100 } ERROR 30 CONFIDENCE 0.95;`,
		`BIN D ON COUNT(*) WHERE W = { state = 'CA', state = 'NY', state = 'WA' } ERROR 40 CONFIDENCE 0.9;`,
		`BIN D ON COUNT(*) WHERE W = { income BETWEEN 0 AND 500000 AND state = 'TX', income BETWEEN 500000 AND 1000000 } ERROR 50 CONFIDENCE 0.95;`,
	} {
		q, err := query.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Ask(q); err != nil && err != engine.ErrDenied {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	for e, err := range eng.Entries(0) {
		if err != nil {
			t.Fatal(err)
		}
		b, err := engine.EncodeEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

func recoverLegacy(t *testing.T, dir string, policy server.StoragePolicy) (*server.Registry, server.DatasetRecovery) {
	t.Helper()
	reg := durableRegistry(t, dir, policy)
	recovered, skipped, err := reg.RecoverDatasets()
	if err != nil || len(skipped) != 0 || len(recovered) != 1 {
		t.Fatalf("recovery: recovered=%+v skipped=%v err=%v", recovered, skipped, err)
	}
	return reg, recovered[0]
}

func segmentVersion(t *testing.T, path string) int {
	t.Helper()
	info, err := colstore.Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Version
}

// TestV1SegmentUpgradedOnRecovery is the read-then-upgrade rule end to
// end: a catalog whose table.seg is a healthy v1 file recovers, answers
// exactly as the CSV-parsed table does, and is a v2 file afterwards — so
// the restart after that opens it without touching the CSV.
func TestV1SegmentUpgradedOnRecovery(t *testing.T) {
	for _, policy := range []server.StoragePolicy{{MmapThreshold: 0}, {MmapThreshold: -1}} {
		dir, segPath, _, heap := v1Catalog(t)
		want := transcriptOf(t, heap)

		reg, rec := recoverLegacy(t, dir, policy)
		if !strings.HasPrefix(rec.Source, "segment (v1)") || !strings.Contains(rec.Source, "segment rebuilt") {
			t.Fatalf("recovery source %q does not report the upgrade", rec.Source)
		}
		ds, _ := reg.Dataset("legacy")
		if policy.MmapThreshold == 0 && (ds.Mode != server.StorageMmap || ds.Segment.Version() != colstore.CurrentVersion) {
			t.Fatalf("serving %v from a v%d segment, want the rebuilt one mapped", ds.Mode, ds.Segment.Version())
		}
		if got := transcriptOf(t, ds.Table); !bytes.Equal(want, got) {
			t.Fatalf("policy %+v: transcript over the upgraded dataset diverges from the CSV-parsed table", policy)
		}
		if v := segmentVersion(t, segPath); v != colstore.CurrentVersion {
			t.Fatalf("table.seg is v%d after recovery, want v%d", v, colstore.CurrentVersion)
		}
		if _, err := os.Stat(segPath + durable.QuarantineSuffix); err == nil {
			t.Fatal("a healthy v1 segment was quarantined")
		}
		if c := reg.Counters(); c.CSVFallbacks != 1 || c.SegmentQuarantines != 0 || c.SegmentOpenFails != 0 {
			t.Fatalf("counters after upgrade: %+v", c)
		}

		// Next life: a plain segment open, provably without the CSV.
		if err := os.Remove(filepath.Join(dir, "catalog", "legacy", store.CSVFile)); err != nil {
			t.Fatal(err)
		}
		reg2, rec2 := recoverLegacy(t, dir, policy)
		if rec2.Source != "segment" {
			t.Fatalf("second restart recovered from %q", rec2.Source)
		}
		if c := reg2.Counters(); c.CSVFallbacks != 0 || c.SegmentOpens != 1 {
			t.Fatalf("counters on second restart: %+v", c)
		}
		ds2, _ := reg2.Dataset("legacy")
		if got := transcriptOf(t, ds2.Table); !bytes.Equal(want, got) {
			t.Fatal("transcript diverges after the second restart")
		}
	}
}

// TestV1SegmentServedAsIs covers the two ways the upgrade does not
// happen: ColdStart forbids CSV work, and a rebuild that cannot run (the
// source CSV is gone). Either way the v1 table serves, with the right
// answers, and not one byte of the file changes.
func TestV1SegmentServedAsIs(t *testing.T) {
	for name, tc := range map[string]struct {
		policy  server.StoragePolicy
		dropCSV bool
		source  string
	}{
		"cold-start":     {server.StoragePolicy{MmapThreshold: 0, ColdStart: true}, false, "segment"},
		"rebuild-failed": {server.StoragePolicy{MmapThreshold: 0}, true, "segment (v1; rebuild failed"},
	} {
		dir, segPath, v1, heap := v1Catalog(t)
		if tc.dropCSV {
			if err := os.Remove(filepath.Join(dir, "catalog", "legacy", store.CSVFile)); err != nil {
				t.Fatal(err)
			}
		}
		reg, rec := recoverLegacy(t, dir, tc.policy)
		if !strings.HasPrefix(rec.Source, tc.source) {
			t.Fatalf("%s: recovered from %q, want %q…", name, rec.Source, tc.source)
		}
		ds, _ := reg.Dataset("legacy")
		if ds.Segment == nil || ds.Segment.Version() != 1 {
			t.Fatalf("%s: not serving the v1 segment: %+v", name, ds)
		}
		if got := transcriptOf(t, ds.Table); !bytes.Equal(transcriptOf(t, heap), got) {
			t.Fatalf("%s: transcript over the v1 segment diverges from the CSV-parsed table", name)
		}
		if now, err := os.ReadFile(segPath); err != nil || !bytes.Equal(v1, now) {
			t.Fatalf("%s: table.seg changed (err %v)", name, err)
		}
		entries, err := os.ReadDir(filepath.Dir(segPath))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), ".rebuild-") || strings.HasSuffix(e.Name(), durable.QuarantineSuffix) {
				t.Fatalf("%s: left %s behind", name, e.Name())
			}
		}
		if c := reg.Counters(); c.CSVFallbacks != 0 || c.SegmentQuarantines != 0 {
			t.Fatalf("%s: counters %+v", name, c)
		}
	}
}

// TestParentCommitSegmentServedUntouched: a v2 segment written before the
// decimal encoding existed (commit 7da849a's Builder over the v1 fixture's
// rows: income, in cents, is raw float64 there) is current-version and
// healthy, so recovery — CSV on disk, no ColdStart, nothing forbidding a
// rebuild — serves it as it is: same answers as the CSV-parsed table and
// as today's for10 build of the same rows, income counted as the raw
// column it is, and not one byte of the file changed.
func TestParentCommitSegmentServedUntouched(t *testing.T) {
	dir, segPath, old, heap := fixtureCatalog(t, filepath.Join("v2_7da849a", "table.seg"))
	reg, rec := recoverLegacy(t, dir, server.StoragePolicy{MmapThreshold: 0})
	if rec.Source != "segment" {
		t.Fatalf("recovered from %q, want a plain segment open", rec.Source)
	}
	ds, _ := reg.Dataset("legacy")
	if ds.Segment == nil || ds.Segment.Version() != colstore.CurrentVersion {
		t.Fatalf("not serving the planted v2 segment: %+v", ds)
	}
	stat := reg.StorageStats()[0]
	if stat.Columns["raw"] != 1 || stat.Columns["for10"] != 0 || stat.Columns["for"] != 1 || stat.Columns["bitpack"] != 1 {
		t.Fatalf("columns by encoding: %v, want income raw, age for, state bitpack", stat.Columns)
	}
	want := transcriptOf(t, heap)
	if got := transcriptOf(t, ds.Table); !bytes.Equal(want, got) {
		t.Fatal("transcript over the parent-written segment diverges from the CSV-parsed table")
	}
	if now, err := os.ReadFile(segPath); err != nil || !bytes.Equal(old, now) {
		t.Fatalf("table.seg changed (err %v)", err)
	}
	if c := reg.Counters(); c.CSVFallbacks != 0 || c.SegmentQuarantines != 0 || c.SegmentOpens != 1 {
		t.Fatalf("counters: %+v", c)
	}

	// The same rows through today's Builder: income packs, answers do not move.
	fresh := durableRegistry(t, t.TempDir(), server.StoragePolicy{MmapThreshold: 0})
	csv, err := os.ReadFile(filepath.Join(dir, "catalog", "legacy", store.CSVFile))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.AddCSV("legacy", heap.Schema(), csv); err != nil {
		t.Fatal(err)
	}
	if cols := fresh.StorageStats()[0].Columns; cols["for10"] != 1 || cols["raw"] != 0 {
		t.Fatalf("fresh build's columns by encoding: %v, want income for10", cols)
	}
	freshDS, _ := fresh.Dataset("legacy")
	if got := transcriptOf(t, freshDS.Table); !bytes.Equal(want, got) {
		t.Fatal("transcript over the for10 build diverges from the CSV-parsed table")
	}
}
