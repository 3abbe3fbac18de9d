package colstore

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
)

// decimalColumn is one continuous column of the fixture: how row i's
// value is made, and the encoding and exponent the Builder must reach.
type decimalColumn struct {
	name string
	enc  string
	exp  int
	vals func(i int) float64
}

// decimalFixture is one column per packing decision the Builder can
// reach for a continuous attribute: the frames it finds and, for each
// value that fits no frame, a column of ordinary cents with that one
// value in it (raw).
var decimalFixture = func() []decimalColumn {
	tenth, fifth := 0.1, 0.2 // variables: the constant 0.1 + 0.2 is exactly 0.3
	cents := func(i int) float64 { return float64((i*7919)%60000) / 100 }
	spoiled := func(bad float64) func(int) float64 {
		return func(i int) float64 {
			if i == 700 {
				return bad
			}
			return cents(i)
		}
	}
	return []decimalColumn{
		{"whole", encFoR, 0, func(i int) float64 { return float64(i%300 - 40) }},
		{"cents", encFoR10, 2, cents},
		{"tenth", encFoR10, 1, func(i int) float64 { return float64(i%4001-2000) / 10 }},
		// The exponent rises as the column streams by: integers, then
		// halves, quarters, eighths.
		{"rising", encFoR10, 3, func(i int) float64 { return float64(i%97) + []float64{0, 0.5, 0.25, 0.125}[i/250] }},
		{"micro", encFoR10, 6, func(i int) float64 { return float64(i*i%1000003) / 1e6 }},
		{"edge", encFoR10, 2, func(i int) float64 { return float64(int64(i%2)*(1<<32-1)-1<<31) / 100 }}, // span 2^32−1
		{"negzero", encRaw, 0, spoiled(math.Copysign(0, -1))},
		{"nan", encRaw, 0, spoiled(math.NaN())},
		{"posinf", encRaw, 0, spoiled(math.Inf(1))},
		{"neginf", encRaw, 0, spoiled(math.Inf(-1))},
		{"binarysum", encRaw, 0, spoiled(tenth + fifth)},
		{"tiny", encRaw, 0, spoiled(1e-7)},
		{"span", encRaw, 0, spoiled(float64(1<<32) / 100)}, // 2^32 cents above the column's 0.00
		{"huge", encRaw, 0, func(i int) float64 { return float64(1<<52+2) + float64(i%9) }},
	}
}()

// decimalTable is the 1000-row heap table of the decimalFixture columns,
// NULLs sprinkled through each.
func decimalTable() *dataset.Table {
	attrs := make([]dataset.Attribute, len(decimalFixture))
	for pos, c := range decimalFixture {
		attrs[pos] = dataset.Attribute{Name: c.name, Kind: dataset.Continuous, Min: -1e18, Max: 1e18}
	}
	heap := dataset.NewTable(dataset.MustSchema(attrs...))
	for i := 0; i < 1000; i++ {
		row := make(dataset.Tuple, len(decimalFixture))
		for pos, c := range decimalFixture {
			row[pos] = dataset.Num(c.vals(i))
			if (i+pos)%53 == 0 && i != 700 {
				row[pos] = dataset.Null
			}
		}
		heap.MustAppend(row)
	}
	return heap
}

// TestDecimalColumnsRoundTrip streams every decimalFixture column through
// the Builder and requires (1) the encoding and exponent Inspect reports
// to be the expected one — a value that fits no frame leaves its whole
// column raw — and (2) every cell read back from the mapped segment, from
// its heap copy and through Floats to be the appended float64 bit for
// bit, NULLs still NULL.
func TestDecimalColumnsRoundTrip(t *testing.T) {
	heap := decimalTable()
	rows := heap.Size()
	path := filepath.Join(t.TempDir(), "decimal.seg")
	appendTable(t, path, heap)

	info, err := Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	for pos, c := range decimalFixture {
		if ci := info.Columns[pos]; ci.Enc != c.enc || ci.Exp != c.exp {
			t.Errorf("column %s: encoded %q exponent %d (width %d), want %q exponent %d", c.name, ci.Enc, ci.Exp, ci.Width, c.enc, c.exp)
		}
	}
	if w := info.Columns[5].Width; w != 32 {
		t.Errorf("edge column packed at width %d, want the full 32", w)
	}

	seg, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	copied, err := HeapCopy(seg.Table())
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*dataset.Table{"mmap": seg.Table(), "heap copy": copied} {
		for pos, c := range decimalFixture {
			floats, _, ok := got.Floats(pos)
			if !ok {
				t.Fatalf("%s column %s: no float view", name, c.name)
			}
			for i := 0; i < rows; i++ {
				want, cell := heap.Row(i)[pos], got.Row(i)[pos]
				if want.IsNull() != cell.IsNull() {
					t.Fatalf("%s column %s row %d: NULL-ness changed: %v -> %v", name, c.name, i, want, cell)
				}
				if want.IsNull() {
					continue
				}
				w, _ := want.AsNum()
				g, _ := cell.AsNum()
				if math.Float64bits(w) != math.Float64bits(g) || math.Float64bits(w) != math.Float64bits(floats[i]) {
					t.Fatalf("%s column %s row %d: appended %v (%#x), Row reads %v (%#x), Floats %v", name, c.name, i,
						w, math.Float64bits(w), g, math.Float64bits(g), floats[i])
				}
			}
		}
	}

	// The directory of a raw column cannot be talked into a frame: the
	// region is rows·8 bytes, which no packed width accounts for.
	h, dir := readDirectory(t, path)
	raw := &dir.Columns[len(decimalFixture)-1]
	zero := 0.0
	raw.Enc, raw.Width, raw.Min, raw.Exp = encFoR10, 32, &zero, 2
	rewriteDirectory(t, path, h, dir, h.version)
	wantCorrupt(t, path, "raw column claims for10")
}
