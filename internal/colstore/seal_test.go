package colstore

import (
	"encoding/binary"
	"encoding/csv"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// TestSealMatchesSegment: the same rows appended to a table, which its
// first read seals, and streamed through Builder.Append into a segment
// that is then opened give identical columns field for field — packed
// codes and dictionaries, frames and lanes, raw float64 bits, missing
// bitmaps — and identical misfit cells. The rows cross several row
// blocks and hold NULLs, misfits, out-of-domain strings, a decimal
// exponent raised mid-stream, a column that turns raw after packing and
// one that is raw from its first row.
func TestSealMatchesSegment(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "state", Kind: dataset.Categorical, Values: []string{"CA", "NY", "TX"}},
		dataset.Attribute{Name: "age", Kind: dataset.Continuous},
		dataset.Attribute{Name: "rising", Kind: dataset.Continuous}, // integers, then tenths, then cents
		dataset.Attribute{Name: "turns", Kind: dataset.Continuous},  // cents, then a third
		dataset.Attribute{Name: "third", Kind: dataset.Continuous},  // raw from the start
		dataset.Attribute{Name: "empty", Kind: dataset.Continuous},  // no value at all
	)
	const n = 9001
	var rows []dataset.Tuple
	for i := 0; i < n; i++ {
		row := dataset.Tuple{
			dataset.Str([]string{"CA", "NY", "TX", "WA", "OR"}[i%5]),
			dataset.Num(float64(i % 97)),
			dataset.Num(float64(i % 500)),
			dataset.Num(float64(i%9000) / 100),
			dataset.Num(float64(i) / 3),
			dataset.Null,
		}
		switch {
		case i >= 6000:
			row[2] = dataset.Num(float64(i%700) / 100)
		case i >= 3000:
			row[2] = dataset.Num(float64(i%700) / 10)
		}
		if i == 7777 {
			row[3] = dataset.Num(1.0 / 3)
		}
		if i%13 == 0 {
			row[i%5] = dataset.Null
		}
		if i%401 == 0 { // misfits: a number in the categorical column, a string in a continuous one
			row[0] = dataset.Num(float64(i))
			row[1+i%4] = dataset.Str("oops")
		}
		rows = append(rows, row)
	}

	heap := dataset.NewTable(schema)
	path := filepath.Join(t.TempDir(), "t.seg")
	b, err := NewBuilder(path, schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		heap.MustAppend(row)
		if err := b.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	seg, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()

	for pos, want := range map[int]string{0: encBitpack, 1: encFoR, 2: encFoR10, 3: EncodingRaw, 4: EncodingRaw, 5: encFoR} {
		if got := EncodingOf(heap.ColumnData(pos)); got != want {
			t.Fatalf("column %d sealed as %s, want %s", pos, got, want)
		}
	}
	if pv := heap.ColumnData(2).PackedVals; pv.Exp != 2 {
		t.Fatalf("rising column at exponent %d, want 2", pv.Exp)
	}
	assertSameColumnData(t, heap, seg.Table())
	if got, want := fmt.Sprint(heap.MisfitCells()), fmt.Sprint(seg.Table().MisfitCells()); got != want || len(heap.MisfitCells()) == 0 {
		t.Fatalf("misfit cells differ:\nheap %s\nseg  %s", got, want)
	}
	for i, row := range rows {
		if got := heap.Row(i); fmt.Sprint(got) != fmt.Sprint(row) {
			t.Fatalf("row %d reads back %v, appended %v", i, got, row)
		}
	}
	if err := heap.Append(rows[0]); err == nil {
		t.Fatal("Append after a read was accepted")
	}
}

// assertSameColumnData compares two tables' ColumnData field for field.
func assertSameColumnData(t *testing.T, want, got *dataset.Table) {
	t.Helper()
	if want.Size() != got.Size() {
		t.Fatalf("rows: %d and %d", want.Size(), got.Size())
	}
	for pos := 0; pos < want.Schema().Arity(); pos++ {
		w, g := want.ColumnData(pos), got.ColumnData(pos)
		same := w.Kind == g.Kind &&
			fmt.Sprintf("%q", w.Dict) == fmt.Sprintf("%q", g.Dict) &&
			fmt.Sprintf("%+v", w.PackedCodes) == fmt.Sprintf("%+v", g.PackedCodes) &&
			fmt.Sprintf("%+v", w.PackedVals) == fmt.Sprintf("%+v", g.PackedVals) &&
			fmt.Sprint(w.MissingWords) == fmt.Sprint(g.MissingWords) &&
			len(w.Vals) == len(g.Vals)
		if !same {
			t.Fatalf("column %d differs:\nwant %+v\ngot  %+v", pos, w, g)
		}
		for i := range w.Vals {
			if math.Float64bits(w.Vals[i]) != math.Float64bits(g.Vals[i]) {
				t.Fatalf("column %d row %d: %v and %v", pos, i, w.Vals[i], g.Vals[i])
			}
		}
	}
}

// TestV1FixtureOpensPacked: a v1 segment's full-width codes are packed
// onto the heap when it opens — the one categorical reader — and its rows
// are the ones the fixture's CSV holds; a code outside the dictionary and
// its sentinels is ErrCorrupt.
func TestV1FixtureOpensPacked(t *testing.T) {
	v1Path, schema, text := v1Fixture(t)
	seg, err := Open(v1Path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	table := seg.Table()
	cd := table.ColumnData(1)
	if cd.PackedCodes == nil || cd.PackedCodes.Width != dataset.PackedCodeWidth(len(cd.Dict)) {
		t.Fatalf("v1 state column opened as %+v, want codes packed at width %d", cd, dataset.PackedCodeWidth(len(cd.Dict)))
	}
	recs, err := csv.NewReader(strings.NewReader(text)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if table.Size() != len(recs)-1 {
		t.Fatalf("%d rows, the CSV holds %d", table.Size(), len(recs)-1)
	}
	for i, rec := range recs[1:] {
		row := table.Row(i)
		for pos, cell := range rec {
			want := dataset.Null
			switch {
			case cell == "":
			case schema.Attr(pos).Kind == dataset.Categorical:
				want = dataset.Str(cell)
			default:
				v, err := strconv.ParseFloat(cell, 64)
				if err != nil {
					t.Fatal(err)
				}
				want = dataset.Num(v)
			}
			if row[pos] != want {
				t.Fatalf("row %d pos %d: %v, the CSV says %v", i, pos, row[pos], want)
			}
		}
	}

	// A code one past the dictionary, or one below the sentinels, with
	// every checksum made to agree.
	for _, code := range []int32{int32(len(cd.Dict)), -3} {
		path := filepath.Join(t.TempDir(), "table.seg")
		raw, err := os.ReadFile(v1Path)
		if err != nil {
			t.Fatal(err)
		}
		h, dir := readDirectory(t, v1Path)
		codes := dir.Columns[1].Codes
		binary.LittleEndian.PutUint32(raw[codes.Off+8:], uint32(code))
		codes.CRC = crc32.Checksum(raw[codes.Off:codes.Off+codes.Len], castagnoli)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		rewriteDirectory(t, path, h, dir, h.version)
		want := fmt.Sprintf("row 2 code %d out of range", code)
		if _, err := Open(path); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Fatalf("v1 code %d: %v, want ErrCorrupt saying %q", code, err, want)
		}
	}
}
