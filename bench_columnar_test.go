// Columnar data-plane micro-benchmarks: the seed's row-at-a-time
// evaluation (Transformed.HistogramRows / TrueAnswersRows and a per-row
// SUM loop) against the columnar kernels that replaced it on the hot
// path. Run with
//
//	go test -run '^$' -bench 'Histogram$|TrueAnswers$|Sum$' -benchmem
//
// and see BENCH_columnar.json for recorded before/after numbers. The 1M
// size is skipped under -short so the CI smoke stays quick.
package repro

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/aggregate"
	"repro/internal/colstore"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/workload"
)

var columnarBenchSizes = []struct {
	name string
	rows int
}{
	{"10k", 10_000},
	{"100k", 100_000},
	{"1M", 1_000_000},
}

// columnarBenchTables caches the generated Adult tables across
// benchmarks so table synthesis is paid once per size, not per b.Run.
var columnarBenchTables sync.Map

func columnarBenchTable(rows int) *dataset.Table {
	if t, ok := columnarBenchTables.Load(rows); ok {
		return t.(*dataset.Table)
	}
	t := datagen.Adult(rows, 1)
	columnarBenchTables.Store(rows, t)
	return t
}

// columnarBenchWorkload mixes the two kernel shapes: continuous range
// bins over "capital gain" and categorical equalities over "education"
// (two components, 26 predicates).
func columnarBenchWorkload(b *testing.B) []dataset.Predicate {
	b.Helper()
	bins, err := workload.Histogram1D("capital gain", 0, 5000, 500)
	if err != nil {
		b.Fatal(err)
	}
	return append(bins, workload.CategoryPredicates("education", datagen.AdultEducations)...)
}

func columnarBenchTransform(b *testing.B, d *dataset.Table, preds []dataset.Predicate) *workload.Transformed {
	b.Helper()
	tr, err := workload.Transform(d.Schema(), preds, workload.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if !tr.Materialized() {
		b.Fatal("bench workload must materialize")
	}
	return tr
}

// BenchmarkHistogram compares x = T_W(D) extraction row-at-a-time vs
// columnar at each table size.
func BenchmarkHistogram(b *testing.B) {
	preds := columnarBenchWorkload(b)
	for _, sz := range columnarBenchSizes {
		if sz.rows > 100_000 && testing.Short() {
			continue
		}
		d := columnarBenchTable(sz.rows)
		tr := columnarBenchTransform(b, d, preds)
		b.Run("rows="+sz.name+"/path=row", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tr.HistogramRows(d); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("rows="+sz.name+"/path=columnar", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tr.Histogram(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrueAnswers compares the exact workload answers c_ϕ(D)
// row-at-a-time vs the scan kernel, plus the implicit arm: a workload too
// large to transform as a whole, answered predicate by predicate.
func BenchmarkTrueAnswers(b *testing.B) {
	preds := columnarBenchWorkload(b)
	for _, sz := range columnarBenchSizes {
		if sz.rows > 100_000 && testing.Short() {
			continue
		}
		d := columnarBenchTable(sz.rows)
		tr := columnarBenchTransform(b, d, preds)
		b.Run("rows="+sz.name+"/path=row", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr.TrueAnswersRows(d)
			}
		})
		b.Run("rows="+sz.name+"/path=columnar", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr.TrueAnswers(d)
			}
		})
	}
	if testing.Short() {
		return
	}
	b.Run("rows=200k/path=implicit", func(b *testing.B) {
		d := implicitBenchTable(b, 200_000)
		preds := implicitBenchWorkload(378)
		tr, err := workload.Transform(d.Schema(), preds, workload.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if tr.Materialized() {
			b.Fatal("the box workload must stay implicit")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.TrueAnswers(d)
		}
	})
}

// implicitBenchTable is rows NYTaxi rows with packed columns: the heap
// copy of their segment.
func implicitBenchTable(b *testing.B, rows int) *dataset.Table {
	b.Helper()
	path := filepath.Join(b.TempDir(), "taxi.seg")
	scanBenchWrite(b, path, datagen.NYTaxi(rows, 1))
	seg, err := colstore.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer seg.Close()
	d, err := colstore.HeapCopy(seg.Table())
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// implicitBenchWorkload draws n 3-D boxes over trip distance, fare and tip
// in cents: hundreds of cuts per attribute put the workload's one
// component far above the cells Transform enumerates, while each box alone
// is a few hundred cells.
func implicitBenchWorkload(n int) []dataset.Predicate {
	rng := rand.New(rand.NewSource(1))
	preds := make([]dataset.Predicate, n)
	for i := range preds {
		box := make(dataset.And, 0, 3)
		for _, a := range []struct {
			attr string
			max  int
		}{{"trip distance", 3000}, {"fare amount", 8000}, {"tip amount", 2000}} {
			lo, hi := rng.Intn(a.max), rng.Intn(a.max)
			box = append(box, dataset.Range{Attr: a.attr, Lo: float64(min(lo, hi)) / 100, Hi: float64(max(lo, hi)+1) / 100})
		}
		preds[i] = box
	}
	return preds
}

// rowPathSums is the seed implementation of the noise-free SUM workload
// (per-row predicate interpretation, no clipping: every Adult value is in
// its domain), kept here as the benchmark baseline for aggregate.ExactSums.
func rowPathSums(d *dataset.Table, attr string, preds []dataset.Predicate) []float64 {
	idx, _ := d.Schema().Lookup(attr)
	sums := make([]float64, len(preds))
	for i := 0; i < d.Size(); i++ {
		row := d.Row(i)
		v, ok := row[idx].AsNum()
		if !ok {
			continue
		}
		for j, p := range preds {
			if p.Eval(d.Schema(), row) {
				sums[j] += v
			}
		}
	}
	return sums
}

// BenchmarkSum compares SUM("capital gain") per education group
// row-at-a-time vs the scan kernel's one classify pass (aggregate.ExactSums).
func BenchmarkSum(b *testing.B) {
	preds := workload.CategoryPredicates("education", datagen.AdultEducations)
	for _, sz := range columnarBenchSizes {
		if sz.rows > 100_000 && testing.Short() {
			continue
		}
		d := columnarBenchTable(sz.rows)
		b.Run("rows="+sz.name+"/path=row", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rowPathSums(d, "capital gain", preds)
			}
		})
		b.Run("rows="+sz.name+"/path=columnar", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := aggregate.ExactSums(d, "capital gain", preds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
