package dataset

import (
	"math"
	"math/bits"
	"slices"
)

// Atom classification: the attribute-at-a-time half of the workload scan
// kernel (internal/workload). A set of predicates over one attribute can
// only distinguish finitely many classes of values — the attribute's
// "atoms": for a continuous attribute with sorted cut constants
// c0 < … < ck-1 these are the points {ci}, the open intervals between
// them, the two unbounded ends, NULL and NaN; for a categorical one the
// mentioned string constants, "any other string", and NULL. Every
// NumCmp/Range/StrEq/IsNull predicate (and any boolean combination) is
// constant on an atom, so a scan that maps each row to its atom index has
// read everything the predicates could ask of that column — once, however
// many predicates there are.
//
// Storage reaches the classifiers through exactly two readers — the
// packed-word block unpacker (PackedInts.unpack, shared by bit-packed
// dictionary codes and frame-of-reference lanes) and the full-width
// slices — and three classify loops: a threshold search over float64
// values, a lane→atom lookup table, and a threshold search over integer
// lanes.

// Atoms describes the atoms of one attribute for a fixed set of
// predicate constants. It is immutable and table-independent; Bind
// specializes it to a table's column storage.
type Atoms struct {
	pos int
	cat bool

	// Continuous: the sorted distinct non-NaN cuts, and keys, the cuts in
	// the order-preserving integer domain of floatKey, each followed by
	// its successor (k0, k0+1, k1, k1+1, …), so that the atom of a non-NaN
	// v is simply countLE(keys, floatKey(v)): each cut at or below v
	// counts once, each cut strictly below it twice.
	cuts []float64
	keys []uint64 // padded for countLE

	// Categorical: the sorted distinct constants, and a string equal to
	// none of them standing for every other value.
	strs  []string
	other string
}

// NumAtoms returns the atoms of the continuous attribute at schema
// position pos under the given cut constants (any order, duplicates and
// NaNs allowed — a comparison with NaN is constant over all numbers, so
// it cuts nothing).
func NumAtoms(pos int, consts []float64) *Atoms {
	cuts := make([]float64, 0, len(consts))
	for _, c := range consts {
		if c == c {
			cuts = append(cuts, c)
		}
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts) // −0 == +0: one cut
	keys := make([]uint64, 0, 2*len(cuts))
	for _, c := range cuts {
		keys = append(keys, floatKey(c), floatKey(c)+1)
	}
	return &Atoms{pos: pos, cuts: cuts, keys: padKeys(keys)}
}

// padKeys extends sorted thresholds to a length of 2^m − 1 with a
// sentinel no key or lane reaches, the shape countLE searches.
func padKeys(keys []uint64) []uint64 {
	for n := 1<<uint(bits.Len(uint(len(keys)))) - 1; len(keys) < n; {
		keys = append(keys, math.MaxUint64)
	}
	return keys
}

// countLE returns #{t ∈ keys : t ≤ k} for padded sorted thresholds. Every
// search takes the same m steps, with no data-dependent branch: the
// borrow of k − t is the comparison.
func countLE(keys []uint64, k uint64) int {
	base := 0
	for s := (len(keys) + 1) >> 1; s > 0; s >>= 1 {
		_, above := bits.Sub64(k, keys[base+s-1], 0)
		base += s &^ -int(above)
	}
	return base
}

// floatKey maps a non-NaN float64 to a uint64 with the same order (and
// −0 onto +0), so that a threshold search compares integers and "c < v"
// is "floatKey(c)+1 <= floatKey(v)". The successor of +Inf's key is the
// first NaN pattern, above every non-NaN key.
func floatKey(v float64) uint64 {
	b := math.Float64bits(v + 0)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// CatAtoms returns the atoms of the categorical attribute at schema
// position pos under the given string constants.
func CatAtoms(pos int, consts []string) *Atoms {
	strs := slices.Compact(slices.Sorted(slices.Values(consts)))
	other := "\x00"
	for slices.Contains(strs, other) {
		other += "\x00"
	}
	return &Atoms{pos: pos, cat: true, strs: strs, other: other}
}

// Pos returns the schema position of the attribute.
func (a *Atoms) Pos() int { return a.pos }

// Count returns the number of atoms. Continuous: 2k+1 numeric atoms for k
// cuts (atom 2i+1 is the point ci, the even ones the intervals around
// them), then NULL, then NaN. Categorical: one per constant, then "other",
// then NULL.
func (a *Atoms) Count() int {
	if a.cat {
		return len(a.strs) + 2
	}
	return 2*len(a.cuts) + 3
}

// null returns the atom of a NULL cell.
func (a *Atoms) null() uint32 {
	if a.cat {
		return uint32(len(a.strs) + 1)
	}
	return uint32(2*len(a.cuts) + 1)
}

// Rep returns a value belonging to the atom — any predicate over the
// constants evaluates on it as on every other member. ok is false for an
// interval no float64 lies in (adjacent cuts, or an end beyond ±Inf);
// classification never yields such an atom.
func (a *Atoms) Rep(atom int) (v Value, ok bool) {
	if a.cat {
		switch {
		case atom < len(a.strs):
			return Str(a.strs[atom]), true
		case atom == len(a.strs):
			return Str(a.other), true
		}
		return Null, true
	}
	k := len(a.cuts)
	switch {
	case atom == 2*k+1:
		return Null, true
	case atom == 2*k+2:
		return Num(math.NaN()), true
	case atom&1 == 1:
		return Num(a.cuts[atom>>1]), true
	case k == 0:
		return Num(0), true
	case atom == 2*k: // above the last cut
		x := math.Nextafter(a.cuts[k-1], math.Inf(1))
		return Num(x), x > a.cuts[k-1]
	}
	i := atom >> 1 // below cut i, above cut i−1 if there is one
	x := math.Nextafter(a.cuts[i], math.Inf(-1))
	return Num(x), x < a.cuts[i] && (i == 0 || x > a.cuts[i-1])
}

// lutMaxWidth is the widest packed lane that classifies through a
// lookup table: 65536 entries, 256 KiB at the cap — L2-resident, and the
// lanes a real column holds cluster in far fewer lines than that. Cents
// and hundredths of a mile land at 11–14 bits, where one load per row
// costs a quarter of the threshold search wider lanes fall back to.
// Bind fills the table per query, so it only does when the column has
// at least as many rows as the table has entries.
const lutMaxWidth = 16

// AtomReader classifies the rows of one table column into atom indices.
// It is immutable after Bind and safe for concurrent Read calls.
type AtomReader struct {
	null uint32

	// Source: exactly one of vals (full-width continuous), codes
	// (full-width categorical) or packed (bit-packed codes or
	// frame-of-reference lanes) is set for a non-empty table; missing is
	// the continuous column's NULL/misfit bitmap.
	vals    []float64
	codes   []int32
	packed  *PackedInts
	missing []uint64

	// Classifier: keys for vals; lut or laneThr for lanes (the latter
	// padded for countLE, like keys).
	keys    []uint64
	lut     []uint32
	laneThr []uint64
}

// Bind specializes the atoms to t's storage of the attribute: it
// resolves the string constants to dictionary codes, or translates the
// float thresholds into the column's lane domain — a lookup table when
// the lanes are narrow and the column has a row per entry, integer
// thresholds otherwise — so that Read never reconstructs a value.
func (a *Atoms) Bind(t *Table) *AtomReader {
	r := &AtomReader{null: a.null()}
	if a.cat {
		col := t.cats[a.pos]
		r.codes, r.packed = col.codes, col.packed
		// Lane domain: code + PackedCodeBias. The misfit sentinel
		// classifies as NULL; the caller patches misfit rows itself.
		r.lut = make([]uint32, len(col.dict)+PackedCodeBias)
		for i := range r.lut {
			r.lut[i] = uint32(len(a.strs))
		}
		r.lut[misfitCode+PackedCodeBias], r.lut[nullCode+PackedCodeBias] = r.null, r.null
		for i, s := range a.strs {
			if code, ok := col.index[s]; ok {
				r.lut[code+PackedCodeBias] = uint32(i)
			}
		}
		return r
	}
	col := t.nums[a.pos]
	r.missing = col.missing.words
	p := col.packed
	if p == nil {
		r.vals, r.keys = col.vals, a.keys
		return r
	}
	r.packed = &p.Ints
	if thr := a.laneThresholds(p); p.Ints.Width <= lutMaxWidth && p.Ints.N >= 1<<uint(p.Ints.Width) {
		r.lut = laneTable(thr, p.Ints.Width)
	} else {
		r.laneThr = padKeys(thr)
	}
	return r
}

// laneThresholds is the lane twin of keys for a frame-of-reference
// column: per cut, the first lane at or above it and the first lane above
// it (1<<Width when there is none, which no lane reaches either). A
// lane's atom is the number of thresholds at or below it.
func (a *Atoms) laneThresholds(p *PackedFloats) []uint64 {
	thr := make([]uint64, 0, 2*len(a.cuts))
	for _, c := range a.cuts {
		thr = append(thr, p.laneGE(c), p.laneGT(c))
	}
	return thr
}

// laneTable spreads sorted lane thresholds into the lane → atom table:
// the run of lanes from threshold j−1 up to threshold j is atom j.
func laneTable(thr []uint64, width int) []uint32 {
	lut := make([]uint32, 1<<uint(width))
	for j, t := range thr { // lanes below thr[0] are atom 0 already
		end := uint64(len(lut))
		if j+1 < len(thr) {
			end = thr[j+1]
		}
		for l := t; l < end; l++ {
			lut[l] = uint32(j + 1)
		}
	}
	return lut
}

// Read writes the atom of row lo+i into dst[i]. lo must be a multiple
// of 64 (the scan's morsels are), so the missing bitmap is consumed in
// whole words.
func (r *AtomReader) Read(lo int, dst []uint32) {
	switch {
	case r.vals != nil:
		classifyFloats(r.vals[lo:lo+len(dst)], r.keys, r.null+1, dst)
	case r.packed != nil:
		r.packed.unpack(lo, dst)
		r.classifyLanes(dst)
	default:
		for i, c := range r.codes[lo : lo+len(dst)] {
			dst[i] = uint32(c + PackedCodeBias)
		}
		r.classifyLanes(dst)
	}
	for wi := 0; wi<<6 < len(dst) && r.missing != nil; wi++ {
		for w := r.missing[lo>>6+wi]; w != 0; w &= w - 1 {
			if i := wi<<6 + bits.TrailingZeros64(w); i < len(dst) {
				dst[i] = r.null
			}
		}
	}
}

// classifyLanes replaces each lane in place with its atom.
func (r *AtomReader) classifyLanes(lanes []uint32) {
	if r.lut != nil {
		lut := r.lut
		for i, l := range lanes {
			lanes[i] = lut[l]
		}
		return
	}
	thr := r.laneThr
	for i, l := range lanes {
		lanes[i] = uint32(countLE(thr, uint64(l)))
	}
}

// classifyFloats writes every value's numeric atom, or nan for a NaN.
func classifyFloats(vals []float64, keys []uint64, nan uint32, dst []uint32) {
	for i, v := range vals {
		a := uint32(countLE(keys, floatKey(v)))
		if v != v {
			a = nan
		}
		dst[i] = a
	}
}
