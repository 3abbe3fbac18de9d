package server_test

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/durable"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/store"
)

func storageSchema(t *testing.T) *dataset.Schema {
	t.Helper()
	return dataset.MustSchema(
		dataset.Attribute{Name: "age", Kind: dataset.Continuous, Min: 0, Max: 100},
		dataset.Attribute{Name: "state", Kind: dataset.Categorical, Values: []string{"CA", "NY", "TX"}},
	)
}

func storageCSV(rows int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.WriteString("age,state\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d,%s\n", rng.Intn(100), []string{"CA", "NY", "TX"}[rng.Intn(3)])
	}
	return []byte(sb.String())
}

func durableRegistry(t *testing.T, dir string, policy server.StoragePolicy) *server.Registry {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	reg.AttachStore(st)
	reg.SetStorage(policy)
	return reg
}

func TestStoragePolicyThreshold(t *testing.T) {
	dir := t.TempDir()
	// Threshold of 2 KiB against full-width column bytes (12 B a row
	// here, plus bitmap and dictionary): "small" (100 rows ≈ 1.2 KiB) stays
	// heap, "large" (5000 rows ≈ 60 KiB) maps — and so does "medium" (500
	// rows ≈ 6 KiB), although its packed payload, 7-bit ages and 3-bit
	// states, is under the threshold: how well a table packs must not
	// decide where it lives.
	const threshold = 2 << 10
	reg := durableRegistry(t, dir, server.StoragePolicy{MmapThreshold: threshold})
	if _, err := reg.AddCSV("small", storageSchema(t), storageCSV(100, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AddCSV("medium", storageSchema(t), storageCSV(500, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AddCSV("large", storageSchema(t), storageCSV(5000, 2)); err != nil {
		t.Fatal(err)
	}
	small, _ := reg.Dataset("small")
	medium, _ := reg.Dataset("medium")
	large, _ := reg.Dataset("large")
	if small.Mode != server.StorageHeap || small.Segment != nil {
		t.Fatalf("small: mode=%v segment=%v", small.Mode, small.Segment)
	}
	if medium.Mode != server.StorageMmap || medium.Segment == nil {
		t.Fatalf("medium: mode=%v segment=%v", medium.Mode, medium.Segment)
	}
	if packed, full := medium.Segment.DataBytes(), medium.Segment.V1DataBytes(); packed >= threshold || full < threshold {
		t.Fatalf("medium: packed payload %d B, full-width %d B; the case needs %d between them", packed, full, threshold)
	}
	if large.Mode != server.StorageMmap || large.Segment == nil {
		t.Fatalf("large: mode=%v segment=%v", large.Mode, large.Segment)
	}
	// Both serve identical answers regardless of home.
	p := dataset.Range{Attr: "age", Lo: 0, Hi: 50}
	if small.Table.Count(p) < 0 || large.Table.Count(p) < 0 {
		t.Fatal("counts unavailable")
	}
	stats := reg.StorageStats()
	if len(stats) != 3 {
		t.Fatalf("stats: %+v", stats)
	}
	for _, s := range stats {
		if s.Name != "small" {
			if s.MappedBytes <= 0 {
				t.Fatalf("%s not mapped: %+v", s.Name, s)
			}
		} else if s.MappedBytes != 0 {
			t.Fatalf("small mapped: %+v", s)
		}
	}
}

// TestColumnEncodingGauge: /metrics counts a dataset's columns by the
// encoding they are served in, every encoding exported from the first
// scrape — so the column that fit no packed form (here one whose values
// are a third of an integer) is a visible enc="raw" 1, on the mapped
// segment, on the heap copy and on a table parsed straight onto the heap
// alike: every table is sealed by the same column encoder.
func TestColumnEncodingGauge(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "age", Kind: dataset.Continuous, Min: 0, Max: 100},
		dataset.Attribute{Name: "state", Kind: dataset.Categorical, Values: []string{"CA", "NY", "TX"}},
		dataset.Attribute{Name: "fare", Kind: dataset.Continuous, Min: 0, Max: 500},
		dataset.Attribute{Name: "third", Kind: dataset.Continuous, Min: 0, Max: 100},
	)
	var sb strings.Builder
	sb.WriteString("age,state,fare,third\n")
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sb, "%d,%s,%.2f,%v\n", i%90, []string{"CA", "NY", "TX"}[i%3], float64(i*37%40000)/100, float64(i)/3)
	}
	reg := durableRegistry(t, t.TempDir(), server.StoragePolicy{MmapThreshold: 0})
	if _, err := reg.AddCSV("mapped", schema, []byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	reg.SetStorage(server.StoragePolicy{MmapThreshold: -1})
	if _, err := reg.AddCSV("copied", schema, []byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	parsed, err := dataset.ReadCSV(strings.NewReader(sb.String()), schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("parsed", parsed); err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg, server.Config{})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for ds, want := range map[string]map[string]float64{
		"mapped": {"bitpack": 1, "for": 1, "for10": 1, "raw": 1},
		"copied": {"bitpack": 1, "for": 1, "for10": 1, "raw": 1},
		"parsed": {"bitpack": 1, "for": 1, "for10": 1, "raw": 1},
	} {
		for enc, n := range want {
			series := fmt.Sprintf(`apex_dataset_columns{dataset=%q,enc=%q}`, ds, enc)
			if got := metricValue(t, string(raw), series); got != n {
				t.Errorf("%s = %v, want %v", series, got, n)
			}
		}
	}
}

func TestRecoveryUsesSegmentNotCSV(t *testing.T) {
	dir := t.TempDir()
	reg := durableRegistry(t, dir, server.StoragePolicy{MmapThreshold: 0}) // always mmap
	table, err := reg.AddCSV("people", storageSchema(t), storageCSV(2000, 3))
	if err != nil {
		t.Fatal(err)
	}
	wantRows := table.Size()

	// Second life: the catalog has a segment, so recovery must not read
	// the CSV at all — prove it by deleting the CSV first.
	csvPath := filepath.Join(dir, "catalog", "people", store.CSVFile)
	if err := os.Remove(csvPath); err != nil {
		t.Fatal(err)
	}
	reg2 := durableRegistry(t, dir, server.StoragePolicy{MmapThreshold: 0, ColdStart: true})
	recovered, skipped, err := reg2.RecoverDatasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("skipped: %v", skipped)
	}
	if len(recovered) != 1 || recovered[0].Source != "segment" || recovered[0].Mode != server.StorageMmap {
		t.Fatalf("recovered: %+v", recovered)
	}
	got, _ := reg2.Get("people")
	if got.Size() != wantRows {
		t.Fatalf("rows: want %d, got %d", wantRows, got.Size())
	}
	if c := reg2.Counters(); c.CSVFallbacks != 0 || c.SegmentOpens == 0 {
		t.Fatalf("counters: %+v", c)
	}
}

// TestRegistrationPhases checks that a durable registration reports its
// steps, in order, and that they fit in its wall time.
func TestRegistrationPhases(t *testing.T) {
	reg := durableRegistry(t, t.TempDir(), server.StoragePolicy{MmapThreshold: 0})
	if _, err := reg.AddCSV("people", storageSchema(t), storageCSV(1000, 4)); err != nil {
		t.Fatal(err)
	}
	ds, _ := reg.Dataset("people")
	var names []string
	var sum time.Duration
	for _, p := range ds.Load.Phases {
		names = append(names, p.Name)
		sum += p.Took
	}
	if got := strings.Join(names, ","); got != "schema,ingest,pack,store-csv,open" || sum > ds.Load.Took || sum <= 0 {
		t.Fatalf("phases %s summing to %v of %v: %s", got, sum, ds.Load.Took, ds.Load)
	}
}

func TestCorruptSegmentQuarantineAndCSVFallback(t *testing.T) {
	dir := t.TempDir()
	reg := durableRegistry(t, dir, server.StoragePolicy{MmapThreshold: 0})
	if _, err := reg.AddCSV("people", storageSchema(t), storageCSV(1000, 4)); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, "catalog", "people", store.SegmentFile)
	// Flip a byte in the middle of the file (a data page).
	f, err := os.OpenFile(segPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := f.Stat()
	var b [1]byte
	off := st.Size() / 2
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Recovery: quarantine + CSV fallback + heal.
	reg2 := durableRegistry(t, dir, server.StoragePolicy{MmapThreshold: 0})
	recovered, skipped, err := reg2.RecoverDatasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("skipped: %v", skipped)
	}
	if len(recovered) != 1 || !strings.HasPrefix(recovered[0].Source, "csv (") {
		t.Fatalf("recovered: %+v", recovered)
	}
	if !strings.Contains(recovered[0].Source, "segment rebuilt (ingest ") || !strings.Contains(recovered[0].Source, ", adopt ") ||
		!strings.Contains(recovered[0].Source, ", open ") {
		t.Fatalf("segment not healed, or its rebuild's phases not reported: %+v", recovered)
	}
	if _, err := os.Stat(segPath + durable.QuarantineSuffix); err != nil {
		t.Fatalf("corrupt segment not quarantined: %v", err)
	}
	if _, err := os.Stat(segPath); err != nil {
		t.Fatalf("rebuilt segment missing: %v", err)
	}
	c := reg2.Counters()
	if c.SegmentQuarantines != 1 || c.CSVFallbacks != 1 || c.SegmentOpenFails != 1 {
		t.Fatalf("counters: %+v", c)
	}
	// The healed dataset is served per policy (mmap) from the rebuilt
	// segment.
	ds, _ := reg2.Dataset("people")
	if ds.Mode != server.StorageMmap {
		t.Fatalf("mode after heal: %v", ds.Mode)
	}

	// Third life: the rebuilt segment recovers cleanly, segment-only.
	reg3 := durableRegistry(t, dir, server.StoragePolicy{MmapThreshold: 0, ColdStart: true})
	recovered, skipped, err = reg3.RecoverDatasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 || len(recovered) != 1 || recovered[0].Source != "segment" {
		t.Fatalf("third life: recovered=%+v skipped=%v", recovered, skipped)
	}
}

func TestColdStartRefusesCSVOnlyEntry(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// An old-format catalog entry: schema + CSV, no segment.
	if err := st.SaveDataset("legacy", storageSchema(t), storageCSV(100, 5)); err != nil {
		t.Fatal(err)
	}

	cold := durableRegistry(t, dir, server.StoragePolicy{ColdStart: true})
	recovered, skipped, err := cold.RecoverDatasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 || len(skipped) != 1 || !strings.Contains(skipped[0], "cold-start") {
		t.Fatalf("cold start served a CSV-only entry: recovered=%+v skipped=%v", recovered, skipped)
	}

	// A warm start takes the fallback and upgrades the entry in place...
	warm := durableRegistry(t, dir, server.StoragePolicy{})
	recovered, skipped, err = warm.RecoverDatasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 || len(recovered) != 1 || !strings.Contains(recovered[0].Source, "segment rebuilt") {
		t.Fatalf("warm start did not upgrade: recovered=%+v skipped=%v", recovered, skipped)
	}
	// ...after which cold starts succeed.
	cold2 := durableRegistry(t, dir, server.StoragePolicy{ColdStart: true})
	recovered, skipped, err = cold2.RecoverDatasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 || len(recovered) != 1 || recovered[0].Source != "segment" {
		t.Fatalf("cold start after upgrade: recovered=%+v skipped=%v", recovered, skipped)
	}
}

// TestMmapDatasetServesSessions drives the full HTTP path over an
// mmap-backed dataset — the same e2e surface the heap tests use.
func TestMmapDatasetServesSessions(t *testing.T) {
	dir := t.TempDir()
	reg := durableRegistry(t, dir, server.StoragePolicy{MmapThreshold: 0})
	if _, err := reg.AddCSV("people", storageSchema(t), storageCSV(5000, 6)); err != nil {
		t.Fatal(err)
	}
	ds, _ := reg.Dataset("people")
	if ds.Mode != server.StorageMmap {
		t.Fatalf("mode: %v", ds.Mode)
	}
	srv := server.New(reg, server.Config{AllowSeeds: true})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	sess, err := c.CreateSession(server.CreateSessionRequest{Dataset: "people", Budget: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := c.Query(sess.ID,
		"BIN D ON COUNT(*) WHERE W = { age BETWEEN 0 AND 50, age BETWEEN 50 AND 100 } ERROR 100 CONFIDENCE 0.95;")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Denied || len(ans.Counts) != 2 {
		t.Fatalf("answer: %+v", ans)
	}
	tr, err := c.Transcript(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Valid || len(tr.Entries) != 1 {
		t.Fatalf("transcript: %+v", tr)
	}
}

// TestCSVFallbackDegradesToHeap pins the last-resort mode: when the
// segment cannot be rebuilt (here the rebuild's temp name is occupied by
// a directory, standing in for a full or read-only disk), the entry is
// still served — parsed from its CSV onto the heap — and says so.
func TestCSVFallbackDegradesToHeap(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveDataset("legacy", storageSchema(t), storageCSV(100, 5)); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "catalog", "legacy", ".rebuild-"+store.SegmentFile), 0o755); err != nil {
		t.Fatal(err)
	}
	reg := durableRegistry(t, dir, server.StoragePolicy{MmapThreshold: 0})
	recovered, skipped, err := reg.RecoverDatasets()
	if err != nil || len(skipped) != 0 || len(recovered) != 1 {
		t.Fatalf("recovered=%+v skipped=%v err=%v", recovered, skipped, err)
	}
	rec := recovered[0]
	if !strings.HasPrefix(rec.Source, "csv (") || strings.Contains(rec.Source, "segment rebuilt") ||
		rec.Mode != server.StorageHeap || rec.Rows != 100 {
		t.Fatalf("degraded recovery: %+v", rec)
	}
	if c := reg.Counters(); c.CSVFallbacks != 1 || c.SegmentOpens != 0 {
		t.Fatalf("counters: %+v", c)
	}
	if _, err := os.Stat(filepath.Join(dir, "catalog", "legacy", store.SegmentFile)); err == nil {
		t.Fatal("a segment appeared although the rebuild could not run")
	}
}
