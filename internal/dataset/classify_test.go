package dataset

import (
	"math"
	"testing"
)

// cmpFloat is the float64 reference every lane kernel must agree with.
func cmpFloat(op CmpOp, v, c float64) bool {
	switch op {
	case Eq:
		return v == c
	case Ne:
		return v != c
	case Lt:
		return v < c
	case Le:
		return v <= c
	case Gt:
		return v > c
	}
	return v >= c
}

// allLanes packs the column that holds every lane of a w-bit frame once:
// row l is (base + l) / 10^exp.
func allLanes(tb testing.TB, base int64, exp, w int) (*PackedFloats, []float64) {
	tb.Helper()
	n := 1 << uint(w)
	vals := make([]float64, n)
	for l := range vals {
		vals[l] = float64(base+int64(l)) / pow10[exp]
	}
	p := sealFloats(tb, vals, make([]uint64, (n+63)>>6)).PackedVals
	if p == nil || p.Ints.Width != w || p.Exp != exp || p.Min != float64(base) {
		tb.Fatalf("all-lanes column (base %d, exp %d) did not pack to width %d: %+v", base, exp, w, p)
	}
	return p, vals
}

// FuzzLaneThresholds checks the float → lane translation on every lane
// of a narrow frame-of-reference column, for arbitrary bases, decimal
// exponents and constants (fractional, out of range, infinite, NaN): the
// thresholds against the float predicate, and the three classify loops —
// float keys, run-filled lookup table, lane thresholds — against each
// other and against the meaning of an atom.
func FuzzLaneThresholds(f *testing.F) {
	f.Add(uint8(8), int64(1), uint8(0), math.Float64bits(43.5), math.Float64bits(44))
	f.Add(uint8(3), int64(-4), uint8(0), math.Float64bits(0), math.Float64bits(math.Copysign(0, -1)))
	f.Add(uint8(9), int64(1)<<49, uint8(0), math.Float64bits(float64(int64(1)<<49)+0.5), math.Float64bits(math.Inf(1)))
	f.Add(uint8(0), int64(7), uint8(0), math.Float64bits(math.NaN()), math.Float64bits(math.Inf(-1)))
	f.Add(uint8(5), int64(0), uint8(0), math.Float64bits(31), math.Float64bits(math.Nextafter(31, 32)))
	f.Add(uint8(7), int64(250), uint8(2), math.Float64bits(2.5+0.07), math.Float64bits(2.57*100))
	f.Add(uint8(6), int64(-30), uint8(1), math.Float64bits(-0.3), math.Float64bits(math.Nextafter(0.3, 1)))
	f.Add(uint8(9), int64(1)<<49, uint8(6), math.Float64bits(float64(int64(1)<<49)/1e6), math.Float64bits(5.63e8))
	f.Add(uint8(4), int64(-7), uint8(3), math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1)))
	f.Add(uint8(9), int64(1)<<51-1, uint8(0), math.Float64bits(float64(int64(1)<<51)+0.5), math.Float64bits(float64(int64(1)<<51)))
	f.Fuzz(func(t *testing.T, width uint8, base int64, k uint8, c1Bits, c2Bits uint64) {
		w := 1 + int(width)%10
		exp := int(k) % (MaxDecimalExp + 1)
		if exp == 0 {
			base %= 1 << 51 // every lane within maxBase,
		} else {
			base %= 1 << 49 // within maxScaled
		}
		n := 1 << uint(w)
		p, vals := allLanes(t, base, exp, w)
		c1, c2 := math.Float64frombits(c1Bits), math.Float64frombits(c2Bits)

		for _, c := range []float64{c1, c2} {
			ge, gt := p.laneGE(c), p.laneGT(c)
			for l, v := range vals {
				if (uint64(l) >= ge) != (v >= c) || (uint64(l) >= gt) != (v > c) {
					t.Fatalf("base %d exp %d c %v lane %d: laneGE %d laneGT %d disagree with the float predicate", base, exp, c, l, ge, gt)
				}
			}
		}

		a := NumAtoms(0, []float64{c1, c2})
		byKey := make([]uint32, n)
		classifyFloats(vals, a.keys, a.null()+1, byKey)
		thrs := a.laneThresholds(p)
		lut := &AtomReader{lut: laneTable(thrs, w)}
		thr := &AtomReader{laneThr: padKeys(thrs)}
		byLUT, byThr := make([]uint32, n), make([]uint32, n)
		p.Ints.unpack(0, byLUT)
		p.Ints.unpack(0, byThr)
		lut.classifyLanes(byLUT)
		thr.classifyLanes(byThr)
		for l, v := range vals {
			if byKey[l] != byLUT[l] || byKey[l] != byThr[l] {
				t.Fatalf("base %d exp %d cuts %v lane %d: atoms differ: keys %d, lut %d, thresholds %d", base, exp, a.cuts, l, byKey[l], byLUT[l], byThr[l])
			}
			// An atom means: every comparison with a cut has the value it
			// has on the atom's representative.
			rep, ok := a.Rep(int(byKey[l]))
			r, _ := rep.AsNum()
			if !ok {
				t.Fatalf("cuts %v: value %v classified into the empty atom %d", a.cuts, v, byKey[l])
			}
			for _, c := range []float64{c1, c2} {
				for op := Eq; op <= Ge; op++ {
					if cmpFloat(op, v, c) != cmpFloat(op, r, c) {
						t.Fatalf("cuts %v: %v and its atom-%d representative %v differ on %v %v", a.cuts, v, byKey[l], r, op, c)
					}
				}
			}
		}
	})
}

// TestLaneTableMatchesFloatKeys: at every width the lookup table serves,
// and at every decimal exponent, the table Bind fills from the per-cut
// lane thresholds is, lane for lane, what the float-key classifier makes
// of the reconstructed values — for cuts on lanes, between them, on both
// ends of the frame, outside it, infinite and NaN.
func TestLaneTableMatchesFloatKeys(t *testing.T) {
	for w := 1; w <= lutMaxWidth; w++ {
		for exp := 0; exp <= MaxDecimalExp; exp++ {
			base := int64(-37 + 1000*exp)
			p, vals := allLanes(t, base, exp, w)
			top := vals[len(vals)-1]
			cuts := []float64{vals[0], top, vals[len(vals)/2], vals[len(vals)/3] + 0.3/pow10[exp],
				math.Nextafter(vals[1], math.Inf(-1)), math.Nextafter(top, math.Inf(1)),
				vals[0] - 1, top + 1, math.Inf(-1), math.Inf(1), math.NaN(), 0, math.Copysign(0, -1)}
			a := NumAtoms(0, cuts)
			want := make([]uint32, len(vals))
			classifyFloats(vals, a.keys, a.null()+1, want)

			schema := MustSchema(Attribute{Name: "x", Kind: Continuous})
			tab, err := TableFromColumns(schema, len(vals), []ColumnData{{
				Kind: Continuous, PackedVals: p, MissingWords: make([]uint64, (len(vals)+63)>>6),
			}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			r := a.Bind(tab)
			if len(r.lut) != len(vals) || r.laneThr != nil {
				t.Fatalf("width %d: Bind chose a %d-entry table and %d thresholds", w, len(r.lut), len(r.laneThr))
			}
			got := make([]uint32, len(vals))
			r.Read(0, got)
			for l := range want {
				if r.lut[l] != want[l] || got[l] != want[l] {
					t.Fatalf("width %d exp %d lane %d (%v): table %d, Read %d, float keys %d", w, exp, l, vals[l], r.lut[l], got[l], want[l])
				}
			}
		}
	}
	// One bit past the cap, or one row short of the table's size, Bind
	// searches thresholds instead.
	wide, _ := allLanes(t, 0, 2, lutMaxWidth+1)
	short, _ := allLanes(t, 0, 2, lutMaxWidth)
	short.Ints.N--
	short.Ints.Words[len(short.Ints.Words)-1] = 0 // the dropped row's word: canonical again
	for _, p := range []*PackedFloats{wide, short} {
		tab, err := TableFromColumns(MustSchema(Attribute{Name: "x", Kind: Continuous}), p.Ints.N,
			[]ColumnData{{Kind: Continuous, PackedVals: p, MissingWords: make([]uint64, (p.Ints.N+63)>>6)}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r := NumAtoms(0, []float64{1.5}).Bind(tab); r.lut != nil || r.laneThr == nil {
			t.Fatalf("width %d, %d rows: Bind built a lookup table", p.Ints.Width, p.Ints.N)
		}
	}
}

// TestAtomsOfFloatColumn walks the float-key classifier over the values
// the packed paths cannot hold — fractions, ±Inf, NaN, −0, denormals,
// adjacent floats — checking each lands in a non-empty atom whose
// representative agrees with it on every comparison with every cut.
func TestAtomsOfFloatColumn(t *testing.T) {
	inf, tiny := math.Inf(1), math.SmallestNonzeroFloat64
	cuts := []float64{math.NaN(), -inf, -1e300, -2.5, math.Copysign(0, -1), 0, tiny, 1, math.Nextafter(1, 2), 1e300, inf}
	vals := append([]float64{-tiny, 0.5, math.Nextafter(1, 0), 2, math.MaxFloat64, -math.MaxFloat64}, cuts...)
	a := NumAtoms(0, cuts)
	if want := 9; len(a.cuts) != want {
		t.Fatalf("%d distinct non-NaN cuts, want %d (NaN dropped, ±0 merged): %v", len(a.cuts), want, a.cuts)
	}
	atoms := make([]uint32, len(vals))
	classifyFloats(vals, a.keys, a.null()+1, atoms)
	for i, v := range vals {
		rep, ok := a.Rep(int(atoms[i]))
		r, _ := rep.AsNum()
		if !ok {
			t.Fatalf("%v classified into the empty atom %d", v, atoms[i])
		}
		for _, c := range cuts {
			for op := Eq; op <= Ge; op++ {
				if cmpFloat(op, v, c) != cmpFloat(op, r, c) {
					t.Fatalf("%v (atom %d) and representative %v differ on %v %v", v, atoms[i], r, op, c)
				}
			}
		}
	}
	// No float64 lies below −Inf, between adjacent floats (0 and the
	// smallest denormal, 1 and its successor), or above +Inf.
	for _, atom := range []int{0, 2 * 4, 2 * 6, 2 * 9} {
		if v, ok := a.Rep(atom); ok {
			t.Fatalf("empty atom %d has representative %v", atom, v)
		}
	}
}
