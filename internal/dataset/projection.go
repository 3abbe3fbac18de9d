package dataset

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/memo"
)

// Projections: the distinct lane tuples of a column set, weighted.
//
// The workload scan kernel only ever asks a table one thing — how many
// rows fall in each cell of a grid over a few attributes — and an
// exploring analyst asks it again and again with new cut points on the
// same few attributes. Every such answer is a function of the rows'
// stored cells alone, so rows with equal cells are interchangeable: a
// projection counts the rows per distinct tuple once (one pass over the
// set's columns) and keeps the occupied tuples as a small table of
// columns plus a weight per tuple. A workload over that column set is
// then answered by the unchanged kernel reading the projection's rows and
// adding weights instead of ones.
//
// A projection is derived state: never persisted, built lazily on first
// use, dropped under memory pressure and rebuilt on demand.

// Projection outcomes: what Table.Projection did for one workload. Hit,
// build and ineligible are the outcome label values of
// apex_scan_projection_total.
const (
	// ProjectionHit: an already built projection answers the workload.
	ProjectionHit = "hit"
	// ProjectionBuild: this call built the projection (one pass over each
	// column of the set) and then answers from it.
	ProjectionBuild = "build"
	// ProjectionIneligible: the column set has no projection; the workload
	// scans the table's rows.
	ProjectionIneligible = "ineligible"
	// ProjectionAbort: this call tried to build the projection and gave up
	// once the set's distinct tuples passed the limit — at most one pass
	// over each column of the set — so the workload scans the table's rows.
	// The set is remembered: later calls report ProjectionIneligible. It is
	// counted as ProjectionIneligible.
	ProjectionAbort = "abort"
)

// ProjectionOutcomes lists every outcome label, for metric registration.
var ProjectionOutcomes = []string{ProjectionHit, ProjectionBuild, ProjectionIneligible}

// projectionRowsPerTuple is the eligibility rule: a column set gets a
// projection when its rows hold at most one distinct tuple per eight rows.
// At that ratio answering from the projection classifies at most an
// eighth of the rows a scan would, and the build's one pass is repaid by
// the first workload that reuses it. The rule is observed, not predicted:
// the build counts the tuples and gives up as soon as they pass the limit.
const projectionRowsPerTuple = 8

// projectionBoundDivisor bounds the projections a table holds, in bytes,
// to this fraction of its own column storage: least recently used sets are
// dropped first, so cycling through column sets cannot grow the heap.
const projectionBoundDivisor = 4

// Projection is the weighted distinct-tuple form of one column set of a
// sealed table. It is immutable.
type Projection struct {
	// table holds one row per occupied tuple: columns at the set's
	// positions, nil elsewhere. A packed column keeps the source's lanes,
	// frame and dictionary (so Atoms.Bind translates cuts exactly as for
	// the source); a raw float64 column holds the distinct values bit for
	// bit. NULL continuous cells carry the missing bit. Rows with a misfit
	// cell are left out — the kernel evaluates those row-at-a-time on the
	// source table.
	table   *Table
	weights []uint32 // source rows per projection row
	bytes   int64
}

// Table returns the projection's rows as a table the scan kernel can bind
// to. Only the projected columns may be read.
func (p *Projection) Table() *Table { return p.table }

// Weights returns the number of source rows behind each projection row.
// Read-only.
func (p *Projection) Weights() []uint32 { return p.weights }

// Bytes returns the storage one pass over the projection reads: its
// columns, missing bitmaps and weights.
func (p *Projection) Bytes() int64 { return p.bytes }

// projectionLimit is the most distinct tuples a projection may hold.
func (t *Table) projectionLimit() int { return t.n / projectionRowsPerTuple }

// keyRadix returns the number of key digits column pos takes in a build:
// per packed continuous column its lanes plus a NULL digit, per
// categorical one its biased codes, per raw float64 one a local id per
// distinct value up to the limit plus a NULL digit.
func (t *Table) keyRadix(pos int) uint64 {
	if c := t.cats[pos]; c != nil {
		return uint64(len(c.dict) + PackedCodeBias)
	}
	if p := t.nums[pos].packed; p != nil {
		return 1<<uint(p.Ints.Width) + 1
	}
	return uint64(t.projectionLimit()) + 1
}

// keySpace returns the number of keys of the column set — the product of
// its radices — and whether the set can have a projection at all: its
// weights fit uint32 and a row's key fits 64 bits.
func (t *Table) keySpace(cols []int) (space uint64, ok bool) {
	t.seal()
	if int64(t.n) > math.MaxUint32 {
		return 0, false
	}
	space = 1
	for _, pos := range cols {
		hi, lo := bits.Mul64(space, t.keyRadix(pos))
		if hi != 0 {
			return 0, false
		}
		space = lo
	}
	return space, true
}

// projectionBound is the byte bound on the table's held projections.
func (t *Table) projectionBound() int64 {
	var total int64
	for pos := range t.cats {
		total += t.columnScanBytes(pos)
	}
	return total / projectionBoundDivisor
}

func projectionKey(cols []int) string { return fmt.Sprint(cols) }

// Projection returns the projection of the sorted column set cols and
// what obtaining it took. A set whose columns cannot be projected (see
// keySpace) has none. Otherwise the first caller builds it — concurrent
// callers of the same cold set wait for that one build and report a hit —
// and it is held, most recently used first, within the table's byte bound;
// the set just asked for is never the one dropped. A build that finds more
// distinct tuples than a row in eight aborts (ProjectionAbort), and the
// set is remembered as having none, at the cost of its key's bytes, so it
// pays that pass once.
func (t *Table) Projection(cols []int) (*Projection, string) {
	if _, ok := t.keySpace(cols); !ok {
		return nil, ProjectionIneligible
	}
	key := projectionKey(cols)
	outcome := ProjectionHit
	p, _ := t.proj.Get(key, func() (*Projection, int64, error) {
		if p := t.buildProjection(cols); p != nil {
			outcome = ProjectionBuild
			return p, p.bytes, nil
		}
		outcome = ProjectionAbort
		return nil, int64(len(key)), nil
	})
	if p == nil && outcome == ProjectionHit {
		outcome = ProjectionIneligible
	}
	return p, outcome
}

// PlannedProjection predicts what Projection(cols) would do, without
// building, waiting or counting as a use: the built projection and
// ProjectionHit; nil and ProjectionIneligible for a set that cannot be
// projected or whose build aborted; nil and ProjectionBuild for a set never
// tried — whose build may still abort (ProjectionMayAbort).
func (t *Table) PlannedProjection(cols []int) (*Projection, string) {
	if _, ok := t.keySpace(cols); !ok {
		return nil, ProjectionIneligible
	}
	p, ok := t.proj.Peek(projectionKey(cols))
	switch {
	case !ok:
		return nil, ProjectionBuild
	case p == nil:
		return nil, ProjectionIneligible
	}
	return p, ProjectionHit
}

// ProjectionMayAbort reports whether a build of cols could find more
// tuples than the limit — true unless the set's keys alone are that few.
// Until a set has been tried, only such a set's PlannedProjection is sure.
func (t *Table) ProjectionMayAbort(cols []int) bool {
	space, ok := t.keySpace(cols)
	return ok && space > uint64(t.projectionLimit())
}

// ProjectionBytes returns the bytes of the projections the table holds —
// at most its bound, or one projection if that alone is larger — with the
// key bytes of the remembered aborted sets.
func (t *Table) ProjectionBytes() int64 { return t.ProjectionStats().Held }

// ProjectionStats returns the counters of the table's projection cache
// (zero for a table that holds none).
func (t *Table) ProjectionStats() memo.Stats {
	t.seal()
	if t.proj == nil {
		return memo.Stats{}
	}
	return t.proj.Stats()
}

// keyColumn is one column of a build: where its digits come from and
// where the projection's copy goes.
type keyColumn struct {
	radix   uint64
	lanes   *PackedInts // packed source; nil for a raw float64 column
	vals    []float64   // raw source
	missing []uint64    // source NULL/misfit bitmap; nil for a categorical column
	// A raw column's local ids: Float64bits → id, and the value per id.
	ids    keyTable
	values []float64

	dst     *PackedInts // packed copy
	dstVals []float64   // raw copy
	dstMiss []uint64
}

// fold multiplies the key of each row in [lo, lo+len(keys)) by the
// column's radix and adds the row's digit: its lane, the id of its raw
// value, or radix−1 for a NULL (or misfit) cell of a continuous column.
// skip are the block's misfit rows, which take no raw id. It reports false
// once a raw column holds more distinct values than limit — its tuples
// then do too.
func (kc *keyColumn) fold(lo int, keys []uint64, digits []uint32, skip []int, limit int) bool {
	if kc.lanes != nil {
		kc.lanes.unpack(lo, digits)
	} else {
		for i, v := range kc.vals[lo : lo+len(digits)] {
			r := lo + i
			digits[i] = 0
			if len(skip) > 0 && skip[0] == r {
				skip = skip[1:]
				continue
			}
			if kc.missing[r>>6]&(1<<(uint(r)&63)) != 0 {
				continue
			}
			e, added := kc.ids.insert(math.Float64bits(v))
			if added {
				if len(kc.values) == limit {
					return false
				}
				kc.ids.vals[e] = uint32(len(kc.values))
				kc.values = append(kc.values, v)
			}
			digits[i] = kc.ids.vals[e]
		}
	}
	for i, d := range digits {
		keys[i] = keys[i]*kc.radix + uint64(d)
	}
	for wi := 0; wi<<6 < len(keys) && kc.missing != nil; wi++ {
		for w := kc.missing[lo>>6+wi]; w != 0; w &= w - 1 {
			if i := wi<<6 + bits.TrailingZeros64(w); i < len(keys) {
				keys[i] += kc.radix - 1 - uint64(digits[i])
			}
		}
	}
	return true
}

// buildProjection counts the table's rows per distinct tuple of the column
// set in one pass over its columns — each row's tuple is a mixed-radix key
// counted in a hash table that grows with the tuples it holds — and then
// compacts the tuples, in key order, into the projection's columns. It
// returns nil as soon as the tuples number more than the limit.
func (t *Table) buildProjection(cols []int) *Projection {
	limit := t.projectionLimit()
	kcs := make([]keyColumn, len(cols))
	for i, pos := range cols {
		kc := &kcs[i]
		kc.radix = t.keyRadix(pos)
		switch c, nc := t.cats[pos], t.nums[pos]; {
		case c != nil:
			kc.lanes = c.packed
		case nc.packed != nil:
			kc.lanes, kc.missing = &nc.packed.Ints, nc.missing.words
		default:
			kc.vals, kc.missing, kc.ids = nc.vals, nc.missing.words, newKeyTable()
		}
	}

	// Count: per block, each column's digits fold into the rows' keys;
	// misfit rows are not counted.
	const block = 4096 // a multiple of 64: missing bitmaps in whole words
	var keys [block]uint64
	var digits [block]uint32
	counts := newKeyTable()
	misfits := t.misfitRows
	for lo := 0; lo < t.n; lo += block {
		n := min(block, t.n-lo)
		k := 0
		for k < len(misfits) && misfits[k] < lo+n {
			k++
		}
		skip := misfits[:k]
		misfits = misfits[k:]
		clear(keys[:n])
		for ci := range kcs {
			if !kcs[ci].fold(lo, keys[:n], digits[:n], skip, limit) {
				return nil
			}
		}
		from := 0
		for _, r := range skip {
			if !counts.count(keys[from:r-lo], limit) {
				return nil
			}
			from = r - lo + 1
		}
		if !counts.count(keys[from:n], limit) {
			return nil
		}
	}

	type tuple struct {
		key    uint64
		weight uint32
	}
	tuples := make([]tuple, 0, counts.n)
	counts.each(func(k uint64, c uint32) { tuples = append(tuples, tuple{k, c}) })
	slices.SortFunc(tuples, func(a, b tuple) int { return cmp.Compare(a.key, b.key) })

	distinct := len(tuples)
	p := &Projection{
		table: &Table{
			schema:  t.schema,
			n:       distinct,
			cats:    make([]*catColumn, len(t.cats)),
			nums:    make([]*numColumn, len(t.nums)),
			misfits: make([]map[int]Value, len(t.misfits)),
		},
		weights: make([]uint32, distinct),
		bytes:   int64(distinct) * 4,
	}
	for i, pos := range cols {
		kc := &kcs[i]
		if c := t.cats[pos]; c != nil {
			kc.dst = &PackedInts{Width: c.packed.Width, N: distinct, Words: make([]uint64, PackedWordCount(distinct, c.packed.Width))}
			p.table.cats[pos] = &catColumn{packed: kc.dst, dict: c.dict, index: c.index}
		} else {
			col := &numColumn{}
			if src := t.nums[pos].packed; src != nil {
				col.packed = &PackedFloats{Ints: PackedInts{Width: src.Ints.Width, N: distinct, Words: make([]uint64, PackedWordCount(distinct, src.Ints.Width))}, Min: src.Min, Exp: src.Exp}
				kc.dst = &col.packed.Ints
			} else {
				col.vals = make([]float64, distinct)
				kc.dstVals = col.vals
			}
			col.missing.Reset(distinct)
			kc.dstMiss = col.missing.words
			p.table.nums[pos] = col
		}
		p.bytes += p.table.columnScanBytes(pos)
	}
	for row, tu := range tuples {
		p.weights[row] = tu.weight
		rem := tu.key
		for ci := len(kcs) - 1; ci >= 0; ci-- {
			kc := &kcs[ci]
			d := rem % kc.radix
			rem /= kc.radix
			switch {
			case kc.dstMiss != nil && d == kc.radix-1:
				kc.dstMiss[row>>6] |= 1 << (uint(row) & 63) // a NULL cell packs as lane 0, like the source's
			case kc.dst != nil:
				w := uint(kc.dst.Width)
				lpw := 64 / int(w)
				kc.dst.Words[row/lpw] |= d << (uint(row%lpw) * w)
			default:
				kc.dstVals[row] = kc.values[d]
			}
		}
	}
	return p
}

// keyTable is an open-addressing hash table from uint64 keys to uint32
// values. It starts small and doubles, so its memory follows the keys it
// holds.
type keyTable struct {
	slots []uint64 // key per slot; 0 marks an empty slot
	vals  []uint32 // value per slot; the extra last one is key 0's
	zero  bool     // key 0 is held
	n     int      // keys held
	shift uint     // 64 − log2(len(slots))
}

const (
	keyTableStart = 6                  // log2 of the initial slot count
	keyTableMul   = 0x9E3779B97F4A7C15 // 2^64/φ: Fibonacci hashing, the top bits pick the slot
)

func newKeyTable() keyTable {
	return keyTable{slots: make([]uint64, 1<<keyTableStart), vals: make([]uint32, 1<<keyTableStart+1), shift: 64 - keyTableStart}
}

// probe returns the slot holding k, or else the empty slot where k would
// go. Key 0 always gets an empty slot: it is held out of line.
func (h *keyTable) probe(k uint64) int {
	mask := len(h.slots) - 1
	i := int(k * keyTableMul >> h.shift)
	for s := h.slots[i]; s != k && s != 0; s = h.slots[i] {
		i = (i + 1) & mask
	}
	return i
}

// insert returns the index in vals of k's value and whether k was added
// (with value 0).
func (h *keyTable) insert(k uint64) (int, bool) {
	if k == 0 {
		added := !h.zero
		if added {
			h.zero = true
			h.n++
		}
		return len(h.slots), added
	}
	i := h.probe(k)
	if h.slots[i] == k {
		return i, false
	}
	if 4*(h.n+1) > 3*len(h.slots) {
		h.grow()
		i = h.probe(k)
	}
	h.slots[i] = k
	h.n++
	return i, true
}

// count adds one to each key's value. It reports false once more than
// limit keys are held.
func (h *keyTable) count(keys []uint64, limit int) bool {
	for _, k := range keys {
		i := h.probe(k)
		if h.slots[i] == 0 { // k is not held, or is key 0
			var added bool
			if i, added = h.insert(k); added && h.n > limit {
				return false
			}
		}
		h.vals[i]++
	}
	return true
}

// grow doubles the table, re-placing every key.
func (h *keyTable) grow() {
	old, oldVals := h.slots, h.vals
	h.slots = make([]uint64, 2*len(old))
	h.vals = make([]uint32, 2*len(old)+1)
	h.shift--
	h.vals[len(h.slots)] = oldVals[len(old)]
	for j, k := range old {
		if k != 0 {
			i := h.probe(k)
			h.slots[i], h.vals[i] = k, oldVals[j]
		}
	}
}

// each calls f for every key held and its value.
func (h *keyTable) each(f func(k uint64, v uint32)) {
	if h.zero {
		f(0, h.vals[len(h.slots)])
	}
	for i, k := range h.slots {
		if k != 0 {
			f(k, h.vals[i])
		}
	}
}
