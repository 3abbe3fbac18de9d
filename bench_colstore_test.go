// Column-store benchmarks: ingest throughput of the streaming segment
// builder, the verify-and-mmap open cost, and Histogram scan throughput
// over heap-resident vs mmap-backed tables — plus a resident-set probe
// showing a mapped dataset serving scans with RSS growth bounded by the
// columns the workload touches, not the table size. Run with
//
//	go test -run '^$' -bench Colstore -benchmem
//	APEX_COLSTORE_ROWS=10000000 go test -run ColstoreRSS -v
//
// and see BENCH_colstore.json for recorded numbers. Sizes above 100k are
// skipped under -short so the CI smoke stays quick.
package repro

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/colstore"
	"repro/internal/dataset"
	"repro/internal/workload"
)

// colstoreBenchSchema is wider than the scan workload on purpose: the
// workload touches age and state only, so the income/score/group columns
// are pages an mmap-backed table never faults in.
func colstoreBenchSchema() *dataset.Schema {
	states := make([]string, 50)
	for i := range states {
		states[i] = fmt.Sprintf("S%02d", i)
	}
	groups := make([]string, 20)
	for i := range groups {
		groups[i] = fmt.Sprintf("G%02d", i)
	}
	return dataset.MustSchema(
		dataset.Attribute{Name: "age", Kind: dataset.Continuous, Min: 0, Max: 100},
		dataset.Attribute{Name: "state", Kind: dataset.Categorical, Values: states},
		dataset.Attribute{Name: "income", Kind: dataset.Continuous, Min: 0, Max: 1e6},
		dataset.Attribute{Name: "group", Kind: dataset.Categorical, Values: groups},
		dataset.Attribute{Name: "score", Kind: dataset.Continuous, Min: 0, Max: 1},
	)
}

// colstoreBenchRow fills row deterministically from an LCG state.
func colstoreBenchRow(row dataset.Tuple, schema *dataset.Schema, x *uint64) {
	next := func() uint64 { *x = *x*6364136223846793005 + 1442695040888963407; return *x >> 33 }
	row[0] = dataset.Num(float64(next() % 100))
	row[1] = dataset.Str(schema.Attr(1).Values[next()%50])
	row[2] = dataset.Num(float64(next() % 1_000_000))
	row[3] = dataset.Str(schema.Attr(3).Values[next()%20])
	row[4] = dataset.Num(float64(next()%1000) / 1000)
}

var (
	colstoreBenchDirOnce sync.Once
	colstoreBenchDir     string
	colstoreBenchSegs    sync.Map // rows -> segment path
)

// colstoreBenchSegment builds (once per size) a segment in a shared temp
// dir that lives for the test process.
func colstoreBenchSegment(tb testing.TB, rows int) string {
	colstoreBenchDirOnce.Do(func() {
		dir, err := os.MkdirTemp("", "colstore-bench-")
		if err != nil {
			tb.Fatal(err)
		}
		colstoreBenchDir = dir
	})
	if p, ok := colstoreBenchSegs.Load(rows); ok {
		return p.(string)
	}
	path := filepath.Join(colstoreBenchDir, fmt.Sprintf("bench-%d.seg", rows))
	schema := colstoreBenchSchema()
	b, err := colstore.NewBuilder(path, schema)
	if err != nil {
		tb.Fatal(err)
	}
	row := make(dataset.Tuple, schema.Arity())
	x := uint64(rows)
	for i := 0; i < rows; i++ {
		colstoreBenchRow(row, schema, &x)
		if err := b.Append(row); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := b.Finish(); err != nil {
		tb.Fatal(err)
	}
	colstoreBenchSegs.Store(rows, path)
	return path
}

func colstoreBenchSizes(short bool) []int {
	if short {
		return []int{100_000}
	}
	return []int{1_000_000, 10_000_000}
}

func colstoreSizeName(rows int) string {
	switch {
	case rows >= 1_000_000:
		return fmt.Sprintf("%dM", rows/1_000_000)
	default:
		return fmt.Sprintf("%dk", rows/1000)
	}
}

// colstoreBenchTransform builds the scan workload: 20 age bins + 50 state
// equalities (two components, touching one continuous and one categorical
// column).
func colstoreBenchTransform(tb testing.TB, d *dataset.Table) *workload.Transformed {
	bins, err := workload.Histogram1D("age", 0, 100, 5)
	if err != nil {
		tb.Fatal(err)
	}
	preds := append(bins, workload.CategoryPredicates("state", colstoreBenchSchema().Attr(1).Values)...)
	tr, err := workload.Transform(d.Schema(), preds, workload.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// BenchmarkColstoreBuild measures streaming ingest (Builder.Append +
// Finish) in rows/s and bytes/s of raw column payload.
func BenchmarkColstoreBuild(b *testing.B) {
	for _, rows := range colstoreBenchSizes(testing.Short()) {
		b.Run(colstoreSizeName(rows), func(b *testing.B) {
			schema := colstoreBenchSchema()
			dir := b.TempDir()
			row := make(dataset.Tuple, schema.Arity())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				path := filepath.Join(dir, fmt.Sprintf("b%d.seg", i))
				bd, err := colstore.NewBuilder(path, schema)
				if err != nil {
					b.Fatal(err)
				}
				x := uint64(rows)
				for j := 0; j < rows; j++ {
					colstoreBenchRow(row, schema, &x)
					if err := bd.Append(row); err != nil {
						b.Fatal(err)
					}
				}
				res, err := bd.Finish()
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(res.DataBytes)
				os.Remove(path)
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkColstoreOpen measures the full verify-checksums-and-mmap open.
func BenchmarkColstoreOpen(b *testing.B) {
	for _, rows := range colstoreBenchSizes(testing.Short()) {
		b.Run(colstoreSizeName(rows), func(b *testing.B) {
			path := colstoreBenchSegment(b, rows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seg, err := colstore.Open(path)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(seg.DataBytes())
				seg.Close()
			}
		})
	}
}

// BenchmarkColstoreHistogram compares the same Histogram workload over
// the heap-resident copy and the mmap-backed table (steady state: pages
// warm), plus a cold-map variant that drops the resident pages before
// every scan (MADV_DONTNEED — faults back in from the page cache).
func BenchmarkColstoreHistogram(b *testing.B) {
	for _, rows := range colstoreBenchSizes(testing.Short()) {
		path := colstoreBenchSegment(b, rows)
		seg, err := colstore.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		defer seg.Close()
		heap, err := colstore.Load(path)
		if err != nil {
			b.Fatal(err)
		}
		run := func(d *dataset.Table, cold bool) func(*testing.B) {
			return func(b *testing.B) {
				tr := colstoreBenchTransform(b, d)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if cold {
						b.StopTimer()
						seg.Release()
						b.StartTimer()
					}
					if _, err := tr.Histogram(d); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			}
		}
		name := colstoreSizeName(rows)
		b.Run("heap/"+name, run(heap, false))
		b.Run("mmap/"+name, run(seg.Table(), false))
		b.Run("mmap-cold/"+name, run(seg.Table(), true))
	}
}

// TestColstoreRSSBound is the beyond-RAM acceptance probe: it serves a
// wide mapped dataset (default 1M rows; set APEX_COLSTORE_ROWS=10000000
// for the recorded 10M run), scans only the 2-of-5-column workload, and
// asserts the process RSS growth stays well below the raw column payload
// — the untouched columns never become resident.
func TestColstoreRSSBound(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows := 1_000_000
	if v := os.Getenv("APEX_COLSTORE_ROWS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatal(err)
		}
		rows = n
	}
	path := colstoreBenchSegment(t, rows)
	debug.FreeOSMemory()
	baseRSS := readRSS(t)

	seg, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	tr := colstoreBenchTransform(t, seg.Table())
	for i := 0; i < 3; i++ {
		if _, err := tr.Histogram(seg.Table()); err != nil {
			t.Fatal(err)
		}
	}

	// From 1M rows up the first of those scans built the projection of
	// (age, state) and the other two were answered from it. Once the two
	// columns' pages are released — what the scheduler's cold-column
	// planner does after 64 batches that read no column — a hundred fresh
	// workloads over the set must not fault one of them back in.
	cols, _, _ := tr.ScanPlan(seg.Table())
	if _, outcome := seg.Table().PlannedProjection(cols); outcome == dataset.ProjectionHit {
		seg.Table().ReleaseColumns(cols)
		released, err := seg.ResidentBytes()
		if err != nil {
			t.Fatal(err)
		}
		releasedFile := readStatus(t, "RssFile:")
		for i := 0; i < 100; i++ {
			lo := float64(i%7) + 0.5
			bins, err := workload.Histogram1D("age", lo, lo+90, 5+float64(i%5))
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := workload.Transform(seg.Table().Schema(), append(bins, dataset.StrEq{Attr: "state", Val: colstoreBenchSchema().Attr(1).Values[i%5]}), workload.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fresh.Histogram(seg.Table()); err != nil {
				t.Fatal(err)
			}
		}
		after, err := seg.ResidentBytes()
		if err != nil {
			t.Fatal(err)
		}
		afterFile := readStatus(t, "RssFile:")
		t.Logf("projection of columns %v holds %d B; after release: mapping resident (mincore) %d B, process RssFile %d B; after 100 projection-answered workloads: %d B, %d B",
			cols, seg.Table().ProjectionBytes(), released, releasedFile, after, afterFile)
		// mincore counts the page cache, which a freshly written segment
		// fills whatever this process does; RssFile counts the file pages
		// in this process's own page tables, and the released columns left
		// those. Either one growing by a fraction of a column (each is
		// ≈ 0.8 B/row) is a column page faulted back in.
		if after > released || afterFile-releasedFile > int64(rows)/4 {
			t.Fatalf("100 projection-answered workloads made %d B of the mapping resident and grew RssFile by %d B", after-released, afterFile-releasedFile)
		}
	} else if rows >= 1_000_000 {
		t.Fatalf("columns %v of %d rows have no projection (%s)", cols, rows, outcome)
	}
	debug.FreeOSMemory()
	afterRSS := readRSS(t)
	resident, err := seg.ResidentBytes()
	if err != nil {
		t.Fatal(err)
	}

	raw := seg.DataBytes()
	grown := afterRSS - baseRSS
	t.Logf("rows=%d raw=%d MiB mapped=%d MiB resident(mincore)=%d MiB rss base=%d MiB after=%d MiB grown=%d MiB",
		rows, raw>>20, seg.MappedBytes()>>20, resident>>20, baseRSS>>20, afterRSS>>20, grown>>20)
	// The workload touches age (7-bit lanes + bitmap) and state (6-bit
	// codes), ≈ 2.0 B/row of the ≈ 6.6 B/row payload now that all five
	// columns pack. Allow generous slack for the Go heap and mincore
	// rounding: growth must stay under 60% of raw — failing means
	// untouched columns became resident (Open included: it drops the
	// pages its lane check walked).
	if grown > raw*6/10 {
		t.Fatalf("RSS grew %d MiB, more than 60%% of the %d MiB raw payload", grown>>20, raw>>20)
	}
}

// readRSS returns the process resident set in bytes (VmRSS).
func readRSS(t *testing.T) int64 { return readStatus(t, "VmRSS:") }

// readStatus returns one kB-valued field of /proc/self/status, in bytes.
func readStatus(t *testing.T, field string) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, field) {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, err := strconv.ParseInt(fields[1], 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				return kb << 10
			}
		}
	}
	t.Fatalf("%s not found in /proc/self/status", field)
	return 0
}
