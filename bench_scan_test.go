// Compressed-scan benchmarks: the same Adult-style workload driven over
// the three homes a table has — the full-width heap table (NewTable; the
// retired v1 segment layout read through these same raw readers), the
// bitpacked + frame-of-reference v2 segment mapped, and that segment's
// packed columns copied onto the heap — measuring not just rows/s but
// rows per unit of memory traffic, the bandwidth-efficiency figure the
// packed kernels exist for. Bytes-touched per scan comes from the column
// directory (the workload's ScanPlan: dataset.Table.ColumnScanBytes
// summed over the columns it references, each read once), not from
// hardware counters, so the number is exact and portable. Run with
//
//	go test -run '^$' -bench CompressedScan -benchmem
//
// and see BENCH_scan.json for recorded numbers and methodology. Sizes
// above 100k are skipped under -short so the CI smoke stays quick.
package repro

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/colstore"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/workload"
)

var (
	scanBenchDirOnce sync.Once
	scanBenchDir     string
	scanBenchTables  sync.Map // rows -> *dataset.Table
	scanBenchSegs    sync.Map // rows -> path
)

func scanBenchTable(rows int) *dataset.Table {
	if t, ok := scanBenchTables.Load(rows); ok {
		return t.(*dataset.Table)
	}
	t := datagen.Adult(rows, 1)
	scanBenchTables.Store(rows, t)
	return t
}

// scanBenchWrite streams a generated table's rows through the segment
// builder into path.
func scanBenchWrite(tb testing.TB, path string, t *dataset.Table) {
	tb.Helper()
	b, err := colstore.NewBuilder(path, t.Schema())
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < t.Size(); i++ {
		if err := b.Append(t.Row(i)); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := b.Finish(); err != nil {
		tb.Fatal(err)
	}
}

// scanBenchSegment writes (once per size) the Adult table as a segment
// in a shared temp dir that lives for the test process.
func scanBenchSegment(tb testing.TB, rows int) string {
	tb.Helper()
	scanBenchDirOnce.Do(func() {
		dir, err := os.MkdirTemp("", "scan-bench-")
		if err != nil {
			tb.Fatal(err)
		}
		scanBenchDir = dir
	})
	if p, ok := scanBenchSegs.Load(rows); ok {
		return p.(string)
	}
	path := filepath.Join(scanBenchDir, fmt.Sprintf("adult-%d.seg", rows))
	scanBenchWrite(tb, path, scanBenchTable(rows))
	scanBenchSegs.Store(rows, path)
	return path
}

// scanBenchTransform is a categorical-heavy Adult workload: 10 age bins
// plus equality predicates over education (16 values) and workclass (8)
// — three components, 34 predicates, touching one FoR-packed and two
// bitpacked columns.
func scanBenchTransform(tb testing.TB, d *dataset.Table) *workload.Transformed {
	tb.Helper()
	bins, err := workload.Histogram1D("age", 0, 100, 10)
	if err != nil {
		tb.Fatal(err)
	}
	preds := append(bins, workload.CategoryPredicates("education", datagen.AdultEducations)...)
	preds = append(preds, workload.CategoryPredicates("workclass", datagen.AdultWorkclasses)...)
	tr, err := workload.Transform(d.Schema(), preds, workload.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// scanBenchTraffic is the column-directory bytes one full evaluation of
// the workload reads: each referenced column's storage (packed words, or
// full-width slices on the raw heap table) once, however many predicates
// bin it.
func scanBenchTraffic(tb testing.TB, d *dataset.Table, tr *workload.Transformed) int64 {
	tb.Helper()
	_, bytes, ok := tr.ScanPlan(d)
	if !ok {
		tb.Fatal("workload has no columnar scan plan")
	}
	return bytes
}

func scanBenchSizes(short bool) []int {
	if short {
		return []int{100_000}
	}
	return []int{100_000, 1_000_000}
}

// BenchmarkCompressedScan runs the Histogram and TrueAnswers kernels
// over the heap, packed-heap and mapped-v2 forms of the same Adult table.
// Reported metrics: rows/s (table rows per evaluation pass), MB/s of
// column traffic, and rows/GB — rows scanned per gigabyte of memory
// traffic, the bandwidth-efficiency quotient (rows/s divided by GB/s).
// The packed forms should hold rows/s while multiplying rows/GB by the
// compression factor — and from 1M rows, where the workload's three-column
// set has a projection, multiply both again.
func BenchmarkCompressedScan(b *testing.B) {
	for _, rows := range scanBenchSizes(testing.Short()) {
		seg, err := colstore.Open(scanBenchSegment(b, rows))
		if err != nil {
			b.Fatal(err)
		}
		packed, err := colstore.HeapCopy(seg.Table())
		if err != nil {
			b.Fatal(err)
		}
		for _, form := range []struct {
			name string
			d    *dataset.Table
		}{{"heap", scanBenchTable(rows)}, {"packed-heap", packed}, {"v2-mmap", seg.Table()}} {
			d := form.d
			tr := scanBenchTransform(b, d)
			tr.TrueAnswers(d) // from 1M rows the packed forms answer from a projection: built here, so traffic is what the timed runs read
			traffic := scanBenchTraffic(b, d, tr)
			name := func(kernel string) string {
				return fmt.Sprintf("rows=%s/form=%s/kernel=%s", colstoreSizeName(rows), form.name, kernel)
			}
			report := func(b *testing.B) {
				b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
				b.ReportMetric(float64(rows)/(float64(traffic)/1e9), "rows/GB")
			}
			b.Run(name("histogram"), func(b *testing.B) {
				b.SetBytes(traffic)
				for i := 0; i < b.N; i++ {
					if _, err := tr.Histogram(d); err != nil {
						b.Fatal(err)
					}
				}
				report(b)
			})
			b.Run(name("truth"), func(b *testing.B) {
				b.SetBytes(traffic)
				for i := 0; i < b.N; i++ {
					tr.TrueAnswers(d)
				}
				report(b)
			})
		}
		seg.Close()
	}
}

// tcq12Cases are the scan-fresh shapes of bench/: a 12-bin histogram over
// one continuous attribute, with and without a categorical filter ANDed
// onto every bin, over each reader a continuous column has: an integer
// frame-of-reference column (PUID, 9-bit lanes), a decimal one (fare
// amount, cents in 14-bit lanes — both through the lane lookup table) and
// a full-width float64 one. No NYTaxi column is raw any more, so the last
// is derived: fare·√2, the same rows in the same twelve bins, in values no
// decimal scale holds.
var tcq12Cases = []struct {
	name, attr string
	lo, width  float64
	filter     bool
}{
	{"for", "PUID", 3, 20, false},
	{"for+cat", "PUID", 3, 20, true},
	{"dec", "fare amount", 2.5, 6.25, false},
	{"dec+cat", "fare amount", 2.5, 6.25, true},
	{"f64", tcq12RawAttr, 2.5 * math.Sqrt2, 6.25 * math.Sqrt2, false},
	{"f64+cat", tcq12RawAttr, 2.5 * math.Sqrt2, 6.25 * math.Sqrt2, true},
}

const tcq12RawAttr = "fare amount x sqrt2"

// tcq12Table is NYTaxi plus the derived raw-float64 column.
func tcq12Table(tb testing.TB, rows int) *dataset.Table {
	tb.Helper()
	taxi := datagen.NYTaxi(rows, 1)
	var attrs []dataset.Attribute
	for pos := 0; pos < taxi.Schema().Arity(); pos++ {
		attrs = append(attrs, taxi.Schema().Attr(pos))
	}
	farePos, ok := taxi.Schema().Lookup("fare amount")
	if !ok {
		tb.Fatal("NYTaxi has no fare amount")
	}
	attrs = append(attrs, dataset.Attribute{Name: tcq12RawAttr, Kind: dataset.Continuous, Min: 0, Max: 500 * math.Sqrt2})
	t := dataset.NewTable(dataset.MustSchema(attrs...))
	for i := 0; i < rows; i++ {
		row := taxi.Row(i)
		fare, _ := row[farePos].AsNum()
		t.MustAppend(append(row, dataset.Num(fare*math.Sqrt2)))
	}
	return t
}

// BenchmarkCompressedScanTCQ12 serves one never-seen 12-bin top-k
// workload the way the scheduler does — a fresh transformation, then one
// EvaluateBatch warming its histogram and true answers — over the v2
// segment of a NYTaxi table, in up to three forms per column shape:
// form=rows is the scan kernel over the table's rows (what a column set
// without a projection pays, and what every set paid before projections),
// form=projected the same request answered from the held projection of its
// column set, form=first-touch the one request that finds the set cold and
// builds the projection before answering from it (≈ one extra pass). The
// projected forms only exist where the table's size makes the set
// eligible: at 100k rows the 14-bit fare column is not. bytes/query is
// what that request reads — for the batched forms the batch's own
// BatchStats.ScanBytes — so it is comparable across commits that change
// how often a column is read.
func BenchmarkCompressedScanTCQ12(b *testing.B) {
	for _, rows := range scanBenchSizes(testing.Short()) {
		path := filepath.Join(b.TempDir(), "taxi.seg")
		scanBenchWrite(b, path, tcq12Table(b, rows))
		seg, err := colstore.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		d := seg.Table()
		for attr, want := range map[string]string{"PUID": "for", "fare amount": "for10", tcq12RawAttr: colstore.EncodingRaw} {
			pos, _ := d.Schema().Lookup(attr)
			if got := colstore.EncodingOf(d.ColumnData(pos)); got != want {
				b.Fatalf("column %q is served %s, its arms need %s", attr, got, want)
			}
		}
		b.Logf("rows=%s: segment payload %d B, full-width %d B", colstoreSizeName(rows), seg.DataBytes(), seg.V1DataBytes())
		for _, c := range tcq12Cases {
			preds, err := workload.Histogram1D(c.attr, c.lo, c.lo+12*c.width, c.width)
			if err != nil {
				b.Fatal(err)
			}
			if c.filter {
				for i, p := range preds {
					preds[i] = dataset.And{p, dataset.StrEq{Attr: "payment type", Val: "card"}}
				}
			}
			name := fmt.Sprintf("rows=%s/col=%s", colstoreSizeName(rows), c.name)
			b.Run(name+"/form=rows", func(b *testing.B) { benchFreshRows(b, d, preds) })
			tr, err := workload.Transform(d.Schema(), preds, workload.Options{})
			if err != nil {
				b.Fatal(err)
			}
			cols, _, _ := tr.ScanPlan(d)
			if _, outcome := d.PlannedProjection(cols); outcome == dataset.ProjectionIneligible {
				continue
			}
			b.Run(name+"/form=first-touch", func(b *testing.B) { benchFreshBatch(b, d, preds, true) })
			b.Run(name+"/form=projected", func(b *testing.B) { benchFreshBatch(b, d, preds, false) })
		}
		seg.Close()
	}
}

// benchFreshRows times one never-seen workload over the table's rows:
// transform, then the scan kernel's one pass for histogram and true
// answers, whatever projection the table holds.
func benchFreshRows(b *testing.B, d *dataset.Table, preds []dataset.Predicate) {
	var traffic int64
	for i := 0; i < b.N; i++ {
		tr, err := workload.Transform(d.Schema(), preds, workload.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := tr.EvaluateUnprojected(d); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			cols, _, _ := tr.ScanPlan(d)
			for _, pos := range cols {
				traffic += d.ColumnScanBytes(pos)
			}
		}
	}
	b.SetBytes(traffic)
	b.ReportMetric(float64(d.Size())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(traffic), "bytes/query")
}

// benchFreshBatch times one never-seen workload end to end: transform,
// then the batch that warms its histogram and true answers — answered from
// d's projection of the column set when d has one. With cold set, every
// iteration instead runs against a fresh zero-copy view of d's columns
// (made off the clock) that holds no projection yet, and builds it.
func benchFreshBatch(b *testing.B, d *dataset.Table, preds []dataset.Predicate, cold bool) {
	fresh := func(view *dataset.Table) int64 {
		cache := workload.NewTransformCache(workload.Options{})
		tr, err := cache.Transform(d.Schema(), workload.Key(preds), preds)
		if err != nil {
			b.Fatal(err)
		}
		return cache.EvaluateBatch(view, []workload.BatchItem{{Tr: tr, Histogram: true, Truth: true}}).ScanBytes
	}
	if !cold {
		fresh(d) // whatever d builds on first touch is built before the clock starts
		b.ResetTimer()
	}
	var traffic int64
	view := d
	for i := 0; i < b.N; i++ {
		if cold {
			b.StopTimer()
			view = scanBenchView(b, d)
			b.StartTimer()
		}
		traffic = fresh(view)
	}
	b.SetBytes(traffic)
	b.ReportMetric(float64(d.Size())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(traffic), "bytes/query")
}

// scanBenchView is a second sealed table over d's own column storage.
func scanBenchView(tb testing.TB, d *dataset.Table) *dataset.Table {
	tb.Helper()
	cols := make([]dataset.ColumnData, d.Schema().Arity())
	for pos := range cols {
		cols[pos] = d.ColumnData(pos)
	}
	view, err := dataset.TableFromColumns(d.Schema(), d.Size(), cols, d.MisfitCells())
	if err != nil {
		tb.Fatal(err)
	}
	return view
}

// BenchmarkCompressedScanSmallTable is the same fresh 12-bin request over
// a 16-bit cents column on either side of the lane table's size: with
// fewer rows than the table's 65536 entries Bind searches thresholds
// (filling the table would cost more than the scan), from there on it
// fills the table.
func BenchmarkCompressedScanSmallTable(b *testing.B) {
	schema := dataset.MustSchema(dataset.Attribute{Name: "cents", Kind: dataset.Continuous, Min: 0, Max: 656})
	preds, err := workload.Histogram1D("cents", 2.5, 2.5+12*50, 50)
	if err != nil {
		b.Fatal(err)
	}
	for _, rows := range []int{4096, 65536} {
		t := dataset.NewTable(schema)
		for i := 0; i < rows; i++ {
			t.MustAppend(dataset.Tuple{dataset.Num(float64(i*(65536/rows)+65536/rows-1) / 100)})
		}
		path := filepath.Join(b.TempDir(), "cents.seg")
		scanBenchWrite(b, path, t)
		seg, err := colstore.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		if cd := seg.Table().ColumnData(0); cd.PackedVals == nil || cd.PackedVals.Ints.Width != 16 {
			b.Fatalf("rows=%d: the column is not served in 16-bit lanes", rows)
		}
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) { benchFreshBatch(b, seg.Table(), preds, false) })
		seg.Close()
	}
}

// TestCompressedScanAcceptance pins the compressed scan path's two
// acceptance numbers on an Adult-style table: (1) the v2 segment's column
// payload is at least 2x smaller than the full-width layout of the same
// columns, and (2) the packed-code kernels' scan traffic is
// correspondingly smaller than the raw heap table's while producing
// identical answers. Throughput parity at 1M rows is recorded from real
// bench runs in BENCH_scan.json rather than asserted here (wall-clock
// ratios under CI load flake).
func TestCompressedScanAcceptance(t *testing.T) {
	rows := 50_000
	path := scanBenchSegment(t, rows)
	info, err := colstore.Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != colstore.CurrentVersion {
		t.Fatalf("builder wrote a v%d segment", info.Version)
	}
	if info.DataBytes*2 > info.V1Bytes {
		t.Errorf("v2 payload %d B is not >=2x smaller than full-width %d B (ratio %.2fx)",
			info.DataBytes, info.V1Bytes, float64(info.V1Bytes)/float64(info.DataBytes))
	}

	seg, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	heap, v2 := scanBenchTable(rows), seg.Table()

	tr1 := scanBenchTransform(t, heap)
	tr2 := scanBenchTransform(t, v2)
	h1, err := tr1.Histogram(heap)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := tr2.Histogram(v2)
	if err != nil {
		t.Fatal(err)
	}
	if len(h1) != len(h2) {
		t.Fatalf("histogram lengths differ: %d vs %d", len(h1), len(h2))
	}
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("partition %d: heap=%v v2=%v", i, h1[i], h2[i])
		}
	}
	a1, a2 := tr1.TrueAnswers(heap), tr2.TrueAnswers(v2)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("answer %d: heap=%v v2=%v", i, a1[i], a2[i])
		}
	}

	t1 := scanBenchTraffic(t, heap, tr1)
	t2 := scanBenchTraffic(t, v2, tr2)
	if t2*2 > t1 {
		t.Errorf("v2 scan traffic %d B is not >=2x smaller than the raw table's %d B", t2, t1)
	}
}
