package colstore

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/workload"
)

func testSchema(t *testing.T) *dataset.Schema {
	t.Helper()
	return dataset.MustSchema(
		dataset.Attribute{Name: "age", Kind: dataset.Continuous, Min: 0, Max: 100},
		dataset.Attribute{Name: "state", Kind: dataset.Categorical, Values: []string{"CA", "NY", "TX"}},
		dataset.Attribute{Name: "income", Kind: dataset.Continuous, Min: 0, Max: 1e6},
	)
}

// testCSV renders n pseudo-random rows, sprinkling NULLs and
// out-of-domain categorical values (both legal CSV inputs).
func testCSV(n int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.WriteString("age,state,income\n")
	states := []string{"CA", "NY", "TX", "WA", "OR"} // WA/OR are out-of-domain
	for i := 0; i < n; i++ {
		age := fmt.Sprintf("%d", rng.Intn(100))
		if rng.Intn(17) == 0 {
			age = ""
		}
		st := states[rng.Intn(len(states))]
		if rng.Intn(23) == 0 {
			st = ""
		}
		inc := fmt.Sprintf("%.2f", rng.Float64()*1e6)
		if rng.Intn(13) == 0 {
			inc = ""
		}
		fmt.Fprintf(&sb, "%s,%s,%s\n", age, st, inc)
	}
	return sb.String()
}

// assertTablesMatch compares two tables cell by cell, and got's answers
// from the scan kernel with want's row-at-a-time counts.
func assertTablesMatch(t *testing.T, want, got *dataset.Table) {
	t.Helper()
	if want.Size() != got.Size() {
		t.Fatalf("size: want %d, got %d", want.Size(), got.Size())
	}
	for i := 0; i < want.Size(); i++ {
		w, g := want.Row(i), got.Row(i)
		for pos := range w {
			if w[pos] != g[pos] {
				t.Fatalf("row %d pos %d: want %v, got %v", i, pos, w[pos], g[pos])
			}
		}
	}
	preds := []dataset.Predicate{
		dataset.Range{Attr: "age", Lo: 20, Hi: 60},
		dataset.StrEq{Attr: "state", Val: "CA"},
		dataset.StrEq{Attr: "state", Val: "WA"}, // out-of-domain, data-present
		dataset.IsNull{Attr: "income"},
		dataset.And{dataset.Range{Attr: "age", Lo: 0, Hi: 50}, dataset.Not{P: dataset.StrEq{Attr: "state", Val: "TX"}}},
	}
	truths := kernelTruths(t, got, preds)
	for j, p := range preds {
		if w, g := want.Count(p), truths[j]; float64(w) != g {
			t.Fatalf("Count(%v): want %d, got %v", p, w, g)
		}
	}
}

// kernelTruths answers the predicates over d through the workload scan
// kernel, the columnar reader every query takes.
func kernelTruths(t *testing.T, d *dataset.Table, preds []dataset.Predicate) []float64 {
	t.Helper()
	tr, err := workload.Transform(d.Schema(), preds, workload.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tr.TrueAnswers(d)
}

func TestBuildCSVRoundTrip(t *testing.T) {
	schema := testSchema(t)
	csv := testCSV(5000, 1)
	heap, err := dataset.ReadCSV(strings.NewReader(csv), schema)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "table.seg")
	res, err := BuildCSV(path, schema, strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 5000 {
		t.Fatalf("rows: want 5000, got %d", res.Rows)
	}
	if res.DataBytes <= 0 || res.FileBytes < res.DataBytes {
		t.Fatalf("sizes inconsistent: %+v", res)
	}

	seg, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if seg.Rows() != 5000 || seg.DataBytes() != res.DataBytes {
		t.Fatalf("segment reports rows=%d bytes=%d, build said %+v", seg.Rows(), seg.DataBytes(), res)
	}
	assertTablesMatch(t, heap, seg.Table())

	if !seg.Table().Sealed() {
		t.Fatal("mmap-backed table must be sealed")
	}
	if err := seg.Table().Append(dataset.Tuple{dataset.Num(1), dataset.Str("CA"), dataset.Num(2)}); err == nil {
		t.Fatal("Append on a sealed table must fail")
	}

	// The heap Load path must match too.
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesMatch(t, heap, loaded)

	// AdviseColumns/Release/ResidentBytes must be callable and sane.
	seg.AdviseColumns([]int{0, 1, 2})
	if res, err := seg.ResidentBytes(); err != nil || res < 0 || res > seg.MappedBytes() {
		t.Fatalf("ResidentBytes = %d, %v (mapped %d)", res, err, seg.MappedBytes())
	}
	seg.Release()
}

func TestAppendRoundTripWithMisfits(t *testing.T) {
	schema := testSchema(t)
	heap := dataset.NewTable(schema)
	heap.MustAppend(dataset.Tuple{dataset.Num(30), dataset.Str("CA"), dataset.Num(100)})
	// Kind-mismatched cells: a number in the categorical column, a string
	// in a continuous one.
	heap.MustAppend(dataset.Tuple{dataset.Num(40), dataset.Num(7), dataset.Str("oops")})
	heap.MustAppend(dataset.Tuple{dataset.Null, dataset.Null, dataset.Null})

	path := filepath.Join(t.TempDir(), "table.seg")
	appendTable(t, path, heap)
	seg, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	got := seg.Table()
	if got.Size() != 3 {
		t.Fatalf("size %d", got.Size())
	}
	for i := 0; i < 3; i++ {
		w, g := heap.Row(i), got.Row(i)
		for pos := range w {
			if w[pos] != g[pos] {
				t.Fatalf("row %d pos %d: want %v, got %v", i, pos, w[pos], g[pos])
			}
		}
	}
	// The misfit rows must take the scan kernel's row-at-a-time patch.
	p := dataset.IsNull{Attr: "state"}
	if w, g := heap.Count(p), kernelTruths(t, got, []dataset.Predicate{p})[0]; float64(w) != g {
		t.Fatalf("IsNull(state): want %d, got %v", w, g)
	}
}

func TestEmptyTable(t *testing.T) {
	schema := testSchema(t)
	path := filepath.Join(t.TempDir(), "empty.seg")
	if _, err := BuildCSV(path, schema, strings.NewReader("age,state,income\n")); err != nil {
		t.Fatal(err)
	}
	seg, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if seg.Rows() != 0 || seg.Table().Size() != 0 {
		t.Fatalf("rows %d", seg.Rows())
	}
	if n := seg.Table().Count(dataset.True{}); n != 0 {
		t.Fatalf("Count(true) = %d", n)
	}
}

func TestBuilderBoundedMemory(t *testing.T) {
	// Not a strict RSS assertion (that lives in the bench); this guards
	// the streaming path end to end at a size where full materialization
	// would be visible.
	if testing.Short() {
		t.Skip("short mode")
	}
	schema := testSchema(t)
	n := 200_000
	path := filepath.Join(t.TempDir(), "big.seg")
	b, err := NewBuilder(path, schema)
	if err != nil {
		t.Fatal(err)
	}
	row := make(dataset.Tuple, 3)
	for i := 0; i < n; i++ {
		row[0] = dataset.Num(float64(i % 100))
		row[1] = dataset.Str([]string{"CA", "NY", "TX"}[i%3])
		row[2] = dataset.Num(float64(i))
		if err := b.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	res, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != n {
		t.Fatalf("rows %d", res.Rows)
	}
	seg, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if got := seg.Table().Count(dataset.Range{Attr: "age", Lo: 0, Hi: 50}); got != n/2 {
		t.Fatalf("Count = %d, want %d", got, n/2)
	}
}
