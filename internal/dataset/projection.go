package dataset

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Projections: the distinct lane tuples of a column set, weighted.
//
// The workload scan kernel only ever asks a table one thing — how many
// rows fall in each cell of a grid over a few attributes — and an
// exploring analyst asks it again and again with new cut points on the
// same few attributes. Every such answer is a function of the rows'
// packed lanes alone, so rows with equal lanes are interchangeable: a
// projection counts the rows per lane combination once (one pass over the
// set's packed columns) and keeps the occupied combinations as a small
// table of packed lane columns plus a weight per tuple. A workload over
// that column set is then answered by the unchanged kernel reading the
// projection's rows and adding weights instead of ones.
//
// A projection is derived state: never persisted, built lazily on first
// use, dropped under memory pressure and rebuilt on demand.

// Projection outcomes: what Table.Projection did for one workload. They
// are the outcome label values of apex_scan_projection_total.
const (
	// ProjectionHit: an already built projection answers the workload.
	ProjectionHit = "hit"
	// ProjectionBuild: this call built the projection (one pass over each
	// column of the set) and then answers from it.
	ProjectionBuild = "build"
	// ProjectionIneligible: the column set has no projection; the workload
	// scans the table's rows.
	ProjectionIneligible = "ineligible"
)

// ProjectionOutcomes lists every outcome, for metric registration.
var ProjectionOutcomes = []string{ProjectionHit, ProjectionBuild, ProjectionIneligible}

// projectionRowsPerSlot is the eligibility rule: a column set gets a
// projection when its lane combinations ("slots") number at most one per
// eight rows. At that ratio answering from the projection classifies at
// most an eighth of the rows a scan would, the dense count array of a
// build is at most half a byte per row, and the build's one extra pass is
// repaid by the first workload that reuses it.
const projectionRowsPerSlot = 8

// projectionBoundDivisor bounds the projections a table holds, in bytes,
// to this fraction of its own column storage: least recently used sets are
// dropped first, so cycling through column sets cannot grow the heap.
const projectionBoundDivisor = 4

// Projection is the weighted distinct-tuple form of one column set of a
// sealed, packed table. It is immutable.
type Projection struct {
	// table holds one row per occupied lane combination: packed columns at
	// the set's positions, in the source columns' own frames and
	// dictionaries (so Atoms.Bind translates cuts exactly as for the
	// source), nil elsewhere; NULL continuous cells carry the missing bit.
	// Rows with a misfit cell are left out — the kernel evaluates those
	// row-at-a-time on the source table.
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

// Bytes returns the storage one pass over the projection reads: its lane
// words, missing bitmaps and weights.
func (p *Projection) Bytes() int64 { return p.bytes }

// projections is a table's set of built projections, keyed by column set.
type projections struct {
	mu      sync.Mutex
	entries map[string]*projEntry
	clock   uint64 // last use stamp handed out
	held    int64  // bytes of the built projections in entries
}

// projEntry builds its projection at most once, however many batches ask
// for a cold column set at the same time.
type projEntry struct {
	once sync.Once
	p    *Projection

	// Guarded by projections.mu: built entries count toward held and carry
	// the stamp of their last use; an entry still building is never evicted.
	built bool
	used  uint64
}

// projectionSlots returns the number of lane combinations of the column
// set — per continuous column its lanes plus a NULL slot, per categorical
// one its biased codes — and whether the set is eligible: the table is
// sealed, every column packed, and the slots at most a row in eight.
func (t *Table) projectionSlots(cols []int) (slots int64, ok bool) {
	if !t.sealed || int64(t.n) > math.MaxUint32 { // weights are uint32
		return 0, false
	}
	limit := int64(t.n / projectionRowsPerSlot)
	slots = 1
	for _, pos := range cols {
		radix, packed := t.laneSlots(pos)
		if !packed {
			return 0, false
		}
		// slots <= limit < 2^29 and radix <= 2^32+1: no overflow.
		if slots *= radix; slots > limit {
			return 0, false
		}
	}
	return slots, slots <= limit
}

// laneSlots returns the number of slots of one packed column, or false
// for a full-width one.
func (t *Table) laneSlots(pos int) (int64, bool) {
	if c := t.cats[pos]; c != nil {
		return int64(len(c.dict) + PackedCodeBias), c.packed != nil
	}
	c := t.nums[pos]
	if c.packed == nil {
		return 0, false
	}
	return int64(1)<<uint(c.packed.Ints.Width) + 1, true
}

// projectionBound is the byte bound on the table's held projections.
func (t *Table) projectionBound() int64 {
	var total int64
	for pos := range t.cats {
		total += t.ColumnScanBytes(pos)
	}
	return total / projectionBoundDivisor
}

func projectionKey(cols []int) string { return fmt.Sprint(cols) }

// Projection returns the projection of the sorted column set cols and
// what obtaining it took. An ineligible set (see projectionSlots) has
// none. An eligible one is built by the first caller — concurrent callers
// of the same cold set wait for that one build and report a hit — and then
// held, most recently used first, within the table's byte bound; the set
// just asked for is never the one dropped.
func (t *Table) Projection(cols []int) (*Projection, string) {
	slots, ok := t.projectionSlots(cols)
	if !ok {
		return nil, ProjectionIneligible
	}
	key := projectionKey(cols)
	pr := &t.proj
	pr.mu.Lock()
	e := pr.entries[key]
	if e == nil {
		if pr.entries == nil {
			pr.entries = make(map[string]*projEntry)
		}
		e = &projEntry{}
		pr.entries[key] = e
	}
	pr.mu.Unlock()

	outcome := ProjectionHit
	e.once.Do(func() {
		e.p = t.buildProjection(cols, slots)
		outcome = ProjectionBuild
	})

	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.entries[key] != e { // dropped while this caller waited; still usable
		return e.p, outcome
	}
	pr.clock++
	e.used = pr.clock
	if !e.built {
		e.built = true
		pr.held += e.p.bytes
		pr.evict(t.projectionBound(), e)
	}
	return e.p, outcome
}

// evict drops least recently used built projections, never keep, until
// the held bytes fit the bound. Called with mu held.
func (pr *projections) evict(bound int64, keep *projEntry) {
	for pr.held > bound {
		lruKey, lru := "", (*projEntry)(nil)
		for k, e := range pr.entries {
			if e.built && e != keep && (lru == nil || e.used < lru.used) {
				lruKey, lru = k, e
			}
		}
		if lru == nil {
			return
		}
		delete(pr.entries, lruKey)
		pr.held -= lru.p.bytes
	}
}

// PlannedProjection predicts what Projection(cols) would do, without
// building, waiting or counting as a use: the built projection and
// ProjectionHit, or nil with ProjectionBuild (eligible, not built yet) or
// ProjectionIneligible.
func (t *Table) PlannedProjection(cols []int) (*Projection, string) {
	if _, ok := t.projectionSlots(cols); !ok {
		return nil, ProjectionIneligible
	}
	t.proj.mu.Lock()
	defer t.proj.mu.Unlock()
	if e := t.proj.entries[projectionKey(cols)]; e != nil && e.built {
		return e.p, ProjectionHit
	}
	return nil, ProjectionBuild
}

// ProjectionBytes returns the bytes of the projections the table holds —
// at most its bound, or one projection if that alone is larger.
func (t *Table) ProjectionBytes() int64 {
	t.proj.mu.Lock()
	defer t.proj.mu.Unlock()
	return t.proj.held
}

// projectedColumn is one column of a build: where its lanes come from and
// go to.
type projectedColumn struct {
	src     *PackedInts
	missing []uint64 // source NULL/misfit bitmap; nil for a categorical column
	radix   int64
	dst     *PackedInts
	dstMiss []uint64
}

// slot returns the column's slot of source row i.
func (c *projectedColumn) slot(i int) int64 {
	if c.missing != nil && c.missing[i>>6]&(1<<(uint(i)&63)) != 0 {
		return c.radix - 1
	}
	return int64(c.src.At(i))
}

// buildProjection counts the table's rows per slot of the (eligible)
// column set in one pass over the set's packed lanes, then compacts the
// occupied slots, in slot order, into the projection's columns.
func (t *Table) buildProjection(cols []int, slots int64) *Projection {
	t.PrefetchColumns(cols)
	pcs := make([]projectedColumn, len(cols))
	for i, pos := range cols {
		pc := &pcs[i]
		pc.radix, _ = t.laneSlots(pos)
		if c := t.cats[pos]; c != nil {
			pc.src = c.packed
		} else {
			pc.src, pc.missing = &t.nums[pos].packed.Ints, t.nums[pos].missing.words
		}
	}

	// Count: per block, each column's lanes (NULL cells moved to the
	// column's last slot) fold by mixed radix into the row's slot.
	const block = 4096 // a multiple of 64: missing bitmaps in whole words
	var slot, lanes [block]uint32
	count := make([]uint32, slots)
	for lo := 0; lo < t.n; lo += block {
		n := min(block, t.n-lo)
		clear(slot[:n])
		for ci := range pcs {
			pc := &pcs[ci]
			pc.src.unpack(lo, lanes[:n])
			for wi := 0; wi<<6 < n && pc.missing != nil; wi++ {
				for w := pc.missing[lo>>6+wi]; w != 0; w &= w - 1 {
					if i := wi<<6 + bits.TrailingZeros64(w); i < n {
						lanes[i] = uint32(pc.radix - 1)
					}
				}
			}
			radix := uint32(pc.radix)
			for i, l := range lanes[:n] {
				slot[i] = slot[i]*radix + l
			}
		}
		for _, s := range slot[:n] {
			count[s]++
		}
	}
	for _, r := range t.misfitRows {
		var s int64
		for ci := range pcs {
			s = s*pcs[ci].radix + pcs[ci].slot(r)
		}
		count[s]--
	}

	distinct := 0
	for _, c := range count {
		if c != 0 {
			distinct++
		}
	}
	p := &Projection{
		table: &Table{
			schema:  t.schema,
			n:       distinct,
			sealed:  true,
			cats:    make([]*catColumn, len(t.cats)),
			nums:    make([]*numColumn, len(t.nums)),
			misfits: make([]map[int]Value, len(t.misfits)),
		},
		weights: make([]uint32, 0, distinct),
		bytes:   int64(distinct) * 4,
	}
	for i, pos := range cols {
		pc := &pcs[i]
		lanes := PackedInts{Width: pc.src.Width, N: distinct, Words: make([]uint64, PackedWordCount(distinct, pc.src.Width))}
		if c := t.cats[pos]; c != nil {
			pc.dst = &lanes
			p.table.cats[pos] = &catColumn{packed: pc.dst, dict: c.dict, index: c.index}
		} else {
			src := t.nums[pos].packed
			col := &numColumn{packed: &PackedFloats{Ints: lanes, Min: src.Min, Exp: src.Exp}}
			pc.dst = &col.packed.Ints
			col.missing.Reset(distinct)
			pc.dstMiss = col.missing.words
			p.table.nums[pos] = col
		}
		p.bytes += p.table.ColumnScanBytes(pos)
	}
	for s, c := range count {
		if c == 0 {
			continue
		}
		row := len(p.weights)
		p.weights = append(p.weights, c)
		rem := int64(s)
		for ci := len(pcs) - 1; ci >= 0; ci-- {
			pc := &pcs[ci]
			lane := rem % pc.radix
			rem /= pc.radix
			if pc.dstMiss != nil && lane == pc.radix-1 {
				pc.dstMiss[row>>6] |= 1 << (uint(row) & 63)
				continue // a NULL cell packs as lane 0, like the source's
			}
			w := uint(pc.dst.Width)
			lpw := 64 / int(w)
			pc.dst.Words[row/lpw] |= uint64(lane) << (uint(row%lpw) * w)
		}
	}
	return p
}
