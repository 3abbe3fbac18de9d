package dataset_test

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/dataset"
)

// rowOracle is the row-at-a-time parser the block ingest replaced, kept as
// the reference the blocks are checked against: encoding/csv one record at
// a time, each row handed to fn. Its errors name the record's physical
// line, and a header naming a column twice is refused.
func rowOracle(r io.Reader, schema *dataset.Schema, fn func(dataset.Tuple) error) error {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("dataset: read header: %w", err)
	}
	colToAttr := make([]int, len(header))
	seen := make(map[int]bool)
	for c, name := range header {
		idx, ok := schema.Lookup(name)
		if !ok {
			return fmt.Errorf("dataset: CSV column %q not in schema", name)
		}
		if seen[idx] {
			return fmt.Errorf("dataset: CSV column %q appears twice in the header", name)
		}
		seen[idx] = true
		colToAttr[c] = idx
	}
	row := make(dataset.Tuple, schema.Arity())
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("dataset: %w", err)
		}
		line, _ := cr.FieldPos(0)
		for i := range row {
			row[i] = dataset.Null
		}
		for c, cell := range rec {
			attr := schema.Attr(colToAttr[c])
			switch {
			case cell == "":
			case attr.Kind == dataset.Continuous:
				f, err := strconv.ParseFloat(cell, 64)
				if err != nil {
					return fmt.Errorf("dataset: line %d, column %q: %w", line, attr.Name, err)
				}
				row[colToAttr[c]] = dataset.Num(f)
			default:
				row[colToAttr[c]] = dataset.Str(cell)
			}
		}
		if err := fn(row); err != nil {
			return err
		}
	}
}

func ingestSchema() *dataset.Schema {
	return dataset.MustSchema(
		dataset.Attribute{Name: "age", Kind: dataset.Continuous, Min: 0, Max: 100},
		dataset.Attribute{Name: "sex", Kind: dataset.Categorical, Values: []string{"F", "M"}},
		dataset.Attribute{Name: "gain", Kind: dataset.Continuous, Min: 0, Max: 5000},
		dataset.Attribute{Name: "city", Kind: dataset.Categorical, Values: []string{"Oslo"}},
	)
}

// lateValueCSV has enough plain rows that a dictionary value first seen at
// the end arrives in a late chunk.
func lateValueCSV() string {
	var b strings.Builder
	b.WriteString("age,sex,gain,city\n")
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&b, "%d,M,%d.25,Oslo\n", i, i)
	}
	b.WriteString("7,F,2,Bergen\n8,X,,Oslo\n9,,3,Bergen\n")
	return b.String()
}

var ingestSeeds = []string{
	// Quotes, a quoted newline, CRLF.
	"age,sex,gain\n30,M,1.5\n\"40\",\"F\",2\n",
	"age,sex\n1,\"multi\nline\"\n2,F\n",
	"age,sex\r\n1,M\r\n2,F\r\n",
	"age,sex\n1,M\n2,F\n3,M\n4,F\n\"5\",M\n6,F\n",
	"age,sex\n1,M\n2,F\n3,M\n\"5\",M,extra\n",
	"age,sex\n1,M\n2,\"F\n",
	// Blank lines, no trailing newline.
	"\n\nage,sex\n\n1,M\n\n\n2,F",
	"age,sex",
	"",
	"\n\n",
	// Wrong field count, a bad float, an empty cell.
	"age,sex\n1,M,3\n",
	"age,sex\n1,M\n\nabc,F\n",
	"age,sex,gain\n,M,\n1,,2\n",
	"age,gain\nNaN,Inf\n-0,1e400\n",
	"age,gain\n5.,+3\n.5,-.25\n0x1p-2,1_000\n",
	"age,gain\n0.1,123456789012345\n1234567890123456,0.30000000000000004\n",
	// An unknown column, a duplicate header.
	"age,bogus\n1,2\n",
	"age,age\n1,2\n",
	"sex,\"sex\"\nM,F\n",
	// A dictionary value first seen in a late chunk.
	lateValueCSV(),
	// Frames folded from the parsed digits: trailing zeros; −0 in its
	// spellings and 0.000; exactly 15 and 16 digits; .5 and 5.; more
	// fraction digits than MaxDecimalExp, with and without a zero past it.
	"age,gain\n12.50,3.10\n1.5,2.000\n-7.250,100.00\n",
	"age,gain\n-0,0.000\n-0.0,1\n0.000,-.000\n",
	"age,gain\n0.000,-0\n1,2\n",
	"age,gain\n123456789012345,12345678901234.5\n1234567890123456,1234567890123.456\n",
	"age,gain\n.5,5.\n-.5,-5.\n",
	"age,gain\n0.1234567,1.5000000\n2,0.000001\n",
	// Scaled values at 2^50 and 2^52 ± 1: packable at exponent 0 up to 2^52,
	// above it only up to 2^50.
	"age,gain\n4503599627370496,112589990684262.4\n-4503599627370496,-112589990684262.4\n",
	"age,gain\n4503599627370497,112589990684262.5\n1,1\n",
	"age,gain\n4503599627370495,1125899906842623\n0,1125899906842625\n",
	"age,gain\n99999999999999.9,1\n0.25,1\n",
	"age,gain\n1,112589990684262.4\n2,112589990684263\n",
	// An exponent raised mid-column across a chunk boundary, and a column
	// turning raw after packed blocks.
	lateFrameCSV("0.125", "7.5"),
	lateFrameCSV("3", "0.1234567"),
	lateFrameCSV("1e300", "-0"),
}

// lateFrameCSV has enough integer rows that the cells given last arrive in
// a late chunk, after the columns packed at exponent 0.
func lateFrameCSV(age, gain string) string {
	var b strings.Builder
	b.WriteString("age,gain\n")
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&b, "%d,%d\n", i, 1000-i)
	}
	fmt.Fprintf(&b, "%s,%s\n5,6\n", age, gain)
	return b.String()
}

// FuzzCSVIngestMatchesRows checks the block ingest against the
// row-at-a-time oracle with chunks shrunk to a few bytes: ReadCSV must
// give the oracle's table (rows, dictionary order, missing bits) and
// BuildCSV the bytes of the segment the oracle's rows build through
// Builder.Append — or both must fail with the oracle's error text.
func FuzzCSVIngestMatchesRows(f *testing.F) {
	for i, s := range ingestSeeds {
		f.Add(s, uint8(i))
	}
	schema := ingestSchema()
	f.Fuzz(func(t *testing.T, input string, chunk uint8) {
		defer dataset.SetChunkSize(1 + int(chunk)%48)()
		checkIngestMatchesRows(t, schema, input)
	})
}

func TestCSVIngestMatchesRowsSeeds(t *testing.T) {
	schema := ingestSchema()
	for i, s := range ingestSeeds {
		for _, size := range []int{1, 7, 64, 256 << 10} {
			t.Run(fmt.Sprintf("seed%d/chunk%d", i, size), func(t *testing.T) {
				defer dataset.SetChunkSize(size)()
				checkIngestMatchesRows(t, schema, s)
			})
		}
	}
}

func checkIngestMatchesRows(t *testing.T, schema *dataset.Schema, input string) {
	t.Helper()
	dir := t.TempDir()
	want := dataset.NewTable(schema)
	wantSeg := filepath.Join(dir, "want.seg")
	b, err := colstore.NewBuilder(wantSeg, schema)
	if err != nil {
		t.Fatal(err)
	}
	wantErr := rowOracle(strings.NewReader(input), schema, func(row dataset.Tuple) error {
		if err := want.Append(row); err != nil {
			return err
		}
		return b.Append(row)
	})
	got, gotErr := dataset.ReadCSV(strings.NewReader(input), schema)
	gotSeg := filepath.Join(dir, "got.seg")
	_, segErr := colstore.BuildCSV(gotSeg, schema, strings.NewReader(input))
	if wantErr != nil {
		b.Abort()
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("ReadCSV error %v, oracle %v", gotErr, wantErr)
		}
		if segErr == nil || segErr.Error() != wantErr.Error() {
			t.Fatalf("BuildCSV error %v, oracle %v", segErr, wantErr)
		}
		return
	}
	if gotErr != nil || segErr != nil {
		t.Fatalf("oracle parsed the input; ReadCSV: %v, BuildCSV: %v", gotErr, segErr)
	}
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	assertSameColumns(t, want, got)
	wantBytes, err := os.ReadFile(wantSeg)
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := os.ReadFile(gotSeg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBytes, gotBytes) {
		t.Fatalf("BuildCSV segment (%d B) differs from the oracle rows' (%d B)", len(gotBytes), len(wantBytes))
	}
}

// assertSameColumns compares two sealed tables column by column: packed
// codes and dictionary order, frames and lanes, float bits and missing
// words.
func assertSameColumns(t *testing.T, want, got *dataset.Table) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("rows %d, want %d", got.Size(), want.Size())
	}
	for pos := 0; pos < want.Schema().Arity(); pos++ {
		w, g := want.ColumnData(pos), got.ColumnData(pos)
		if fmt.Sprint(w.Dict) != fmt.Sprint(g.Dict) || fmt.Sprintf("%+v", w.PackedCodes) != fmt.Sprintf("%+v", g.PackedCodes) {
			t.Fatalf("column %d: dict %q codes %+v, want %q %+v", pos, g.Dict, g.PackedCodes, w.Dict, w.PackedCodes)
		}
		if fmt.Sprintf("%+v", w.PackedVals) != fmt.Sprintf("%+v", g.PackedVals) {
			t.Fatalf("column %d: frame and lanes %+v, want %+v", pos, g.PackedVals, w.PackedVals)
		}
		if fmt.Sprint(w.MissingWords) != fmt.Sprint(g.MissingWords) || len(w.Vals) != len(g.Vals) {
			t.Fatalf("column %d: missing %x (%d vals), want %x (%d)", pos, g.MissingWords, len(g.Vals), w.MissingWords, len(w.Vals))
		}
		for i := range w.Vals {
			if math.Float64bits(w.Vals[i]) != math.Float64bits(g.Vals[i]) {
				t.Fatalf("column %d row %d: %v, want %v", pos, i, g.Vals[i], w.Vals[i])
			}
		}
	}
}

func TestCSVErrorsNamePhysicalLine(t *testing.T) {
	schema := ingestSchema()
	for _, tc := range []struct{ name, input, want string }{
		{"blank lines", "age,sex\n\n\n1,M\nabc,F\n",
			`dataset: line 5, column "age": strconv.ParseFloat: parsing "abc": invalid syntax`},
		{"quoted newline", "age,sex\n1,\"two\nlines\"\nabc,F\n",
			`dataset: line 4, column "age": strconv.ParseFloat: parsing "abc": invalid syntax`},
		{"field count", "age,sex\n1,M\n\n2\n",
			"dataset: record on line 4: wrong number of fields"},
		{"field count after a quote", "age,sex\n\"1\",M\n\n2\n",
			"dataset: record on line 4: wrong number of fields"},
	} {
		for _, size := range []int{3, 256 << 10} {
			restore := dataset.SetChunkSize(size)
			_, err := dataset.ReadCSV(strings.NewReader(tc.input), schema)
			_, segErr := colstore.BuildCSV(filepath.Join(t.TempDir(), "t.seg"), schema, strings.NewReader(tc.input))
			restore()
			for _, e := range []error{err, segErr} {
				if e == nil || e.Error() != tc.want {
					t.Errorf("%s, chunk %d: error %v, want %s", tc.name, size, e, tc.want)
				}
			}
		}
	}
}

func TestDuplicateHeaderRefused(t *testing.T) {
	schema := ingestSchema()
	const want = `dataset: CSV column "age" appears twice in the header`
	for _, input := range []string{"age,age\n1,2\n", "age,sex,\"age\"\n1,M,2\n"} {
		if _, err := dataset.ReadCSV(strings.NewReader(input), schema); err == nil || err.Error() != want {
			t.Errorf("ReadCSV(%q): %v, want %s", input, err, want)
		}
		path := filepath.Join(t.TempDir(), "t.seg")
		if _, err := colstore.BuildCSV(path, schema, strings.NewReader(input)); err == nil || err.Error() != want {
			t.Errorf("BuildCSV(%q): %v, want %s", input, err, want)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("BuildCSV(%q) left a segment behind: %v", input, err)
		}
	}
}

// plainRows renders n quote-free records over ingestSchema.
func plainRows(n int) string {
	var b strings.Builder
	b.WriteString("age,sex,gain,city\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d,%s,%d.5,Oslo\n", i%100, []string{"F", "M"}[i%2], i)
	}
	return b.String()
}

func TestIngestFallbackCounted(t *testing.T) {
	defer dataset.SetChunkSize(64)()
	schema := ingestSchema()
	plain := plainRows(100)
	quotedTail := plain + "1,\"M\",2,Oslo\n"
	quotedHeader := "\"age\",sex,gain,city\n" + strings.TrimPrefix(plain, "age,sex,gain,city\n")
	for _, tc := range []struct {
		name          string
		input         string
		fallbackRange [2]int // inclusive
	}{
		{"plain", plain, [2]int{0, 0}},
		{"quote in the last record", quotedTail, [2]int{1, 10}},
		{"quote in the header", quotedHeader, [2]int{100, 100}},
		{"CRLF", strings.ReplaceAll(plain, "\n", "\r\n"), [2]int{100, 100}},
	} {
		var rows int
		st, err := dataset.IngestCSV(strings.NewReader(tc.input), schema, func(b *dataset.Block) error {
			rows += b.Rows
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st.Records != rows || st.FallbackRecords < tc.fallbackRange[0] || st.FallbackRecords > tc.fallbackRange[1] {
			t.Errorf("%s: %+v over %d rows, want fallback in %v", tc.name, st, rows, tc.fallbackRange)
		}
		res, err := colstore.BuildCSV(filepath.Join(t.TempDir(), "t.seg"), schema, strings.NewReader(tc.input))
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows != st.Records || res.FallbackRecords != st.FallbackRecords {
			t.Errorf("%s: BuildCSV %+v, IngestCSV %+v", tc.name, res, st)
		}
	}
}

// TestIngestBlocksInOrder checks the blocks arrive in input order: their
// physical lines only grow, and every record is delivered once.
func TestIngestBlocksInOrder(t *testing.T) {
	defer dataset.SetChunkSize(100)()
	input := plainRows(5000)
	next := 2
	st, err := dataset.IngestCSV(strings.NewReader(input), ingestSchema(), func(b *dataset.Block) error {
		if b.Rows != len(b.Lines) {
			t.Fatalf("block of %d rows has %d lines", b.Rows, len(b.Lines))
		}
		for _, l := range b.Lines {
			if l != next {
				t.Fatalf("record on line %d, want %d", l, next)
			}
			next++
		}
		return nil
	})
	if err != nil || st.Records != 5000 || next != 5002 {
		t.Fatalf("%+v, %v; next line %d", st, err, next)
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// TestIngestBoundedReadAhead holds the sink on the first block: the reader
// may fill every slot, but no more, so it reads at most GOMAXPROCS+1
// chunks (plus the header chunk and a partial line) ahead.
func TestIngestBoundedReadAhead(t *testing.T) {
	const size = 1 << 10
	defer dataset.SetChunkSize(size)()
	input := plainRows(100_000)
	cr := &countingReader{r: strings.NewReader(input)}
	bound := int64((runtime.GOMAXPROCS(0) + 3) * size)
	first := true
	_, err := dataset.IngestCSV(cr, ingestSchema(), func(b *dataset.Block) error {
		if first {
			first = false
			time.Sleep(50 * time.Millisecond)
			if n := cr.n.Load(); n > bound {
				t.Errorf("read %d bytes ahead of the first block, bound %d", n, bound)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

type failingReader struct {
	r     io.Reader
	after int
}

func (f *failingReader) Read(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, errors.New("disk on fire")
	}
	if len(p) > f.after {
		p = p[:f.after]
	}
	n, err := f.r.Read(p)
	f.after -= n
	return n, err
}

func TestIngestStopsOnErrors(t *testing.T) {
	defer dataset.SetChunkSize(256)()
	schema := ingestSchema()
	input := plainRows(20_000)
	before := runtime.NumGoroutine()

	stop := errors.New("sink full")
	var blocks int
	_, err := dataset.IngestCSV(strings.NewReader(input), schema, func(*dataset.Block) error {
		if blocks++; blocks == 3 {
			return stop
		}
		return nil
	})
	if err != stop || blocks != 3 {
		t.Fatalf("sink error: got %v after %d blocks", err, blocks)
	}

	_, err = dataset.IngestCSV(&failingReader{r: strings.NewReader(input), after: 5000}, schema, func(*dataset.Block) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("read error: got %v", err)
	}

	// Every reader and worker goroutine has exited.
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines, %d before the ingests", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestParseFloatMatchesStrconv(t *testing.T) {
	cases := []string{"0", "-0", "00", "-00.000", "1", "-1", "0.1", "0.3", "1.5", "-.5", ".5", "5.", "+5",
		"123456789012345", "1234567890123456", "0.000000000000001", "999999999999999.9",
		"9007199254740993", "1e3", "1E-3", "NaN", "inf", "-Inf", "0x10", "1_0", "", "-", ".", "..", "1.2.3", "1e400", "abc"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		digits := 1 + rng.Intn(17)
		var b strings.Builder
		if rng.Intn(3) == 0 {
			b.WriteByte('-')
		}
		dot := rng.Intn(digits + 1)
		for d := 0; d < digits; d++ {
			if d == dot && d > 0 {
				b.WriteByte('.')
			}
			b.WriteByte(byte('0' + rng.Intn(10)))
		}
		cases = append(cases, b.String())
	}
	for _, s := range cases {
		want, wantErr := strconv.ParseFloat(s, 64)
		got, gotErr := dataset.ParseFloat(s)
		if math.Float64bits(got) != math.Float64bits(want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("parseFloat(%q) = %v (%x), %v; strconv %v (%x), %v",
				s, got, math.Float64bits(got), gotErr, want, math.Float64bits(want), wantErr)
		}
	}
}

func TestAppendBits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		var words []uint64
		var want []bool
		for part := 0; part < 4; part++ {
			m := rng.Intn(150)
			src := make([]uint64, (m+63)/64+1)
			for i := range src {
				src[i] = rng.Uint64() // bits past m must be ignored
			}
			words = dataset.AppendBits(words, len(want), src, m)
			for i := 0; i < m; i++ {
				want = append(want, src[i/64]&(1<<(i%64)) != 0)
			}
			if len(words) != (len(want)+63)/64 {
				t.Fatalf("%d words for %d bits", len(words), len(want))
			}
			for i := 0; i < len(words)*64; i++ {
				got := words[i/64]&(1<<(i%64)) != 0
				if got != (i < len(want) && want[i]) {
					t.Fatalf("iter %d part %d: bit %d = %v of %d bits", iter, part, i, got, len(want))
				}
			}
		}
	}
}
