package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sealFloats appends a one-column table of the values (NULL where the
// missing bit is set) and returns its column as the seal encodes it:
// PackedVals when FoRFrame finds a frame, raw Vals otherwise.
func sealFloats(tb testing.TB, vals []float64, missingWords []uint64) ColumnData {
	tb.Helper()
	tab := NewTable(MustSchema(Attribute{Name: "v", Kind: Continuous}))
	for i, v := range vals {
		if missingWords[i>>6]&(1<<(uint(i)&63)) != 0 {
			tab.MustAppend(Tuple{Null})
		} else {
			tab.MustAppend(Tuple{Num(v)})
		}
	}
	return tab.ColumnData(0)
}

// TestPackedCodeWidth pins the width function at the bit-width
// boundaries the biased sentinel domain creates.
func TestPackedCodeWidth(t *testing.T) {
	cases := []struct{ dict, want int }{
		{0, 1}, {1, 2}, {2, 2}, {3, 3}, {6, 3}, {7, 4}, {14, 4},
		{254, 8}, {255, 9}, {65534, 16}, {65535, 17},
	}
	for _, c := range cases {
		if got := PackedCodeWidth(c.dict); got != c.want {
			t.Errorf("PackedCodeWidth(%d) = %d, want %d", c.dict, got, c.want)
		}
	}
}

// TestPackedIntsRoundTrip packs random lanes at every width and checks
// At, the canonical-form validator, and the no-straddle layout.
func TestPackedIntsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for width := 1; width <= 32; width++ {
		for _, n := range []int{0, 1, 63, 64, 65, 1000} {
			limit := uint64(1) << uint(width)
			lanes := make([]uint64, n)
			p := &PackedInts{Width: width, N: n, Words: make([]uint64, PackedWordCount(n, width))}
			lpw := 64 / width
			for i := range lanes {
				lanes[i] = rng.Uint64() % limit
				p.Words[i/lpw] |= lanes[i] << (uint(i%lpw) * uint(width))
			}
			for i, want := range lanes {
				if got := p.At(i); got != want {
					t.Fatalf("width %d n %d: At(%d) = %d, want %d", width, n, i, got, want)
				}
			}
			if err := p.validate(n, limit); err != nil {
				t.Fatalf("width %d n %d: validate: %v", width, n, err)
			}
			// Slack or tail corruption must be rejected.
			if uint(lpw*width) < 64 && len(p.Words) > 0 {
				p.Words[0] |= 1 << uint(lpw*width)
				if err := p.validate(n, limit); err == nil {
					t.Fatalf("width %d n %d: validate accepted nonzero slack", width, n)
				}
				p.Words[0] &^= 1 << uint(lpw*width)
			}
			if n > 0 && n%lpw != 0 {
				p.Words[len(p.Words)-1] |= 1 << (uint(n%lpw) * uint(width))
				if err := p.validate(n, limit); err == nil {
					t.Fatalf("width %d n %d: validate accepted nonzero tail lane", width, n)
				}
			}
		}
	}
}

// TestPackedFloatsScan classifies frame-of-reference columns — by lane
// lookup table at narrow widths, by lane thresholds at wide ones —
// against their unpacked twins, for fractional, negative, NaN and
// infinite cut constants: every row must land in the atom the float64
// reader puts it in, and every comparison with a cut must hold on the
// row's value as on the atom's representative.
func TestPackedFloatsScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	schema := MustSchema(Attribute{Name: "v", Kind: Continuous})
	for _, span := range []uint64{0, 1, 100, 1 << 16, 1 << 31} {
		n := 777
		base := float64(-50)
		vals := make([]float64, n)
		missing := make([]uint64, (n+63)>>6)
		for i := range vals {
			if rng.Intn(17) == 0 {
				missing[i>>6] |= 1 << (uint(i) & 63)
				continue
			}
			vals[i] = base + float64(rng.Uint64()%(span+1))
		}
		cd := sealFloats(t, vals, missing)
		if cd.PackedVals == nil {
			t.Fatalf("span %d: the seal left an eligible column raw", span)
		}
		if w := cd.PackedVals.Ints.Width; w > 32 {
			t.Fatalf("span %d: width %d", span, w)
		}
		raw, err := TableFromColumns(schema, n, []ColumnData{{Kind: Continuous, Vals: vals, MissingWords: missing}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		packed, err := TableFromColumns(schema, n, []ColumnData{cd}, nil)
		if err != nil {
			t.Fatal(err)
		}
		consts := []float64{base, base + 1, base + 0.5, base + float64(span), -1e9, 1e9,
			math.NaN(), math.Inf(1), math.Inf(-1), 0, 40.25}
		for _, c := range consts {
			a := NumAtoms(0, []float64{c, c + float64(span)/3 + 1})
			want, got := make([]uint32, n), make([]uint32, n)
			a.Bind(raw).Read(0, want)
			a.Bind(packed).Read(0, got)
			for i, v := range vals {
				if got[i] != want[i] {
					t.Fatalf("span %d cuts %v row %d (v=%v): packed atom %d, unpacked %d", span, a.cuts, i, v, got[i], want[i])
				}
				if missing[i>>6]&(1<<(uint(i)&63)) != 0 {
					if got[i] != a.null() {
						t.Fatalf("span %d row %d: missing row in atom %d, not NULL", span, i, got[i])
					}
					continue
				}
				rep, _ := a.Rep(int(got[i]))
				r, _ := rep.AsNum()
				for _, cut := range a.cuts {
					for op := Eq; op <= Ge; op++ {
						if cmpFloat(op, v, cut) != cmpFloat(op, r, cut) {
							t.Fatalf("span %d cuts %v: %v and its atom-%d representative %v differ on %v %v", span, a.cuts, v, got[i], r, op, cut)
						}
					}
				}
			}
		}
	}
}

// TestPackValsRejectsIneligible pins the fall-back-to-unpacked cases —
// the cliff apex_dataset_columns{enc="raw"} counts — and the frames just
// inside them.
func TestPackValsRejectsIneligible(t *testing.T) {
	none := []uint64{0}
	tenth, fifth := 0.1, 0.2 // variables: the constant 0.1 + 0.2 is exactly 0.3
	for _, vals := range [][]float64{
		{0, math.NaN()},                 // NaN
		{0, math.Inf(1)},                // infinite
		{1, math.Copysign(0, -1)},       // −0 would come back as +0
		{1, tenth + fifth},              // 0.30000000000000004: no short decimal
		{1, 1e-7},                       // one digit past MaxDecimalExp
		{0, 1 << 53},                    // too large for exact deltas
		{1<<52 + 2, 1<<52 + 4},          // integers just past maxBase
		{(1<<50 + 5) / 10.0},            // tenths just past maxScaled
		{0.5, 1 << 49},                  // fits at exp 0, not once scaled by 10
		{1 << 51, 0.5},                  // the same, the fraction arriving second
		{-(1 << 31), 1 << 31},           // span over 32 bits
		{0, 1 << 32},                    // span exactly 2^32
		{0, 0.01, float64(1<<32) / 100}, // span 2^32 in cents
	} {
		if p := sealFloats(t, vals, make([]uint64, 1)).PackedVals; p != nil {
			t.Errorf("seal packed %v, exp %d width %d", vals, p.Exp, p.Ints.Width)
		}
	}
	for _, c := range []struct {
		vals       []float64
		exp, width int
		min        float64
	}{
		{[]float64{0, float64(1<<32) - 1}, 0, 32, 0},              // the widest packable span
		{[]float64{-(1 << 52), -(1 << 52) + 3}, 0, 2, -(1 << 52)}, // integers reach maxBase,
		{[]float64{1<<52 - 3, 1 << 52}, 0, 2, 1<<52 - 3},          // on both sides;
		{[]float64{(1<<50 - 5) / 10.0}, 1, 1, 1<<50 - 5},          // decimals reach maxScaled
		{[]float64{1, 2.5, 3}, 1, 5, 10},                          // one decimal
		{[]float64{12.34, 2.5, 7}, 2, 10, 250},                    // the exponent rises mid-column
		{[]float64{-0.07, 0.29, 0.57}, 2, 7, -7},                  // cents that are not v·100 exactly
		{[]float64{0.000001, 0.25}, 6, 18, 1},                     // MaxDecimalExp
		{[]float64{(1<<32 - 1) / 100.0, 0}, 2, 32, 0},             // widest span, scaled
	} {
		p := sealFloats(t, c.vals, none).PackedVals
		if p == nil {
			t.Errorf("seal left %v raw", c.vals)
			continue
		}
		if p.Exp != c.exp || p.Ints.Width != c.width || p.Min != c.min {
			t.Errorf("seal of %v: exp %d width %d min %v, want %d %d %v", c.vals, p.Exp, p.Ints.Width, p.Min, c.exp, c.width, c.min)
		}
		for i, v := range c.vals {
			if got := p.At(i); math.Float64bits(got) != math.Float64bits(v) {
				t.Errorf("seal of %v: row %d reads back %v", c.vals, i, got)
			}
		}
	}
	// All-missing columns pack trivially.
	if p := sealFloats(t, []float64{0, 0}, []uint64{3}).PackedVals; p == nil || p.Ints.Width != 1 || p.Exp != 0 {
		t.Errorf("all-missing column: %+v", p)
	}
}

// buildMixedTable appends rows with NULLs, out-of-domain strings and
// kind-mismatched misfit cells across dictionary sizes that straddle
// packed bit-width boundaries, and returns the table with the rows.
func buildMixedTable(t *testing.T, n int, seed int64) (*Table, []Tuple) {
	t.Helper()
	schema, err := NewSchema(
		Attribute{Name: "flag", Kind: Categorical, Values: []string{"y"}},                           // width 2 after sentinels
		Attribute{Name: "grade", Kind: Categorical, Values: []string{"a", "b", "c", "d", "e", "f"}}, // width 3
		Attribute{Name: "code7", Kind: Categorical, Values: domainN(7)},                             // width 4 boundary
		Attribute{Name: "code254", Kind: Categorical, Values: domainN(254)},                         // width 8 boundary
		Attribute{Name: "age", Kind: Continuous},
		Attribute{Name: "gain", Kind: Continuous},
		Attribute{Name: "frac", Kind: Continuous},  // 17 significant digits: stays unpacked
		Attribute{Name: "cents", Kind: Continuous}, // two decimals: exp 2, 16-bit lanes
		Attribute{Name: "tenth", Kind: Continuous}, // one decimal, negative base: exp 1
		Attribute{Name: "mixed", Kind: Continuous}, // integers, halves, eighths, mills: exp 3
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	tab := NewTable(schema)
	g254 := domainN(254)
	var rows []Tuple
	for i := 0; i < n; i++ {
		row := Tuple{
			Str([]string{"y", "n?", "y", "y"}[rng.Intn(4)]), // n? is out of domain
			Str(string(rune('a' + rng.Intn(8)))),            // g,h out of domain
			Str(fmt.Sprintf("v%d", rng.Intn(9))),
			Str(g254[rng.Intn(254)]),
			Num(float64(17 + rng.Intn(74))),
			Num(float64(rng.Intn(100000))),
			Num(rng.Float64() * 100),
			Num(float64(rng.Intn(60000)) / 100),
			Num(float64(rng.Intn(4000)-2000) / 10),
			Num([]float64{3, 2.5, 0.125, 17.003, 40}[rng.Intn(5)] + float64(rng.Intn(90))),
		}
		for pos := range row {
			if rng.Intn(23) == 0 {
				row[pos] = Null
			}
		}
		if rng.Intn(41) == 0 { // kind-mismatched cells exercise the misfit patch path
			row[rng.Intn(4)] = Num(float64(rng.Intn(5)))
		}
		if rng.Intn(41) == 0 {
			row[4+rng.Intn(6)] = Str("oops")
		}
		tab.MustAppend(row)
		rows = append(rows, row)
	}
	return tab, rows
}

func domainN(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("v%d", i)
	}
	return out
}

// TestPackedTableDifferential requires the sealed table to give back the
// tuples appended to it — rows and Floats — with every column in the
// encoding the seal's rules pick. (The predicate battery evaluated over
// the tuples lives on in workload's TestOnePredicateMatchesRowsPackedBattery.)
func TestPackedTableDifferential(t *testing.T) {
	packed, rows := buildMixedTable(t, 4097, 7)

	if fp := packed.ColumnData(6); fp.PackedVals != nil {
		t.Fatalf("fractional column unexpectedly packed")
	}
	for pos, exp := range map[int]int{4: 0, 5: 0, 7: 2, 8: 1, 9: 3} {
		if pv := packed.ColumnData(pos).PackedVals; pv == nil || pv.Exp != exp {
			t.Fatalf("column %d: packed %+v, want decimal exponent %d", pos, pv, exp)
		}
	}
	if cp := packed.ColumnData(0); cp.PackedCodes == nil {
		t.Fatalf("categorical column not packed")
	}

	for i, want := range rows {
		got := packed.Row(i)
		for pos := range want {
			if got[pos] != want[pos] {
				t.Fatalf("row %d pos %d: appended %v, sealed %v", i, pos, want[pos], got[pos])
			}
		}
	}

	for pos := 4; pos <= 9; pos++ {
		vals, missing, _ := packed.Floats(pos)
		for i, row := range rows {
			v, isNum := row[pos].AsNum()
			if isNum == missing.Get(i) {
				t.Fatalf("Floats pos %d row %d: missing bit %v for %v", pos, i, missing.Get(i), row[pos])
			}
			if isNum && math.Float64bits(v) != math.Float64bits(vals[i]) {
				t.Fatalf("Floats pos %d row %d: appended %v, sealed %v", pos, i, v, vals[i])
			}
		}
	}

	// Packed categorical scans read ~width/32 of the full-width codes'
	// bytes (4 a row).
	if pk, full := packed.ColumnScanBytes(3), int64(packed.Size())*4; pk*3 > full {
		t.Fatalf("code254 packed scan bytes %d not < 1/3 of full-width %d", pk, full)
	}
}
