package dataset

import (
	"fmt"
	"runtime"
	"sync"
	"unsafe"

	"repro/internal/memo"
)

// Tuple is one row; cells are indexed by schema position.
type Tuple []Value

// Table is a multiset of tuples conforming to a schema, stored
// column-major in the encodings of segment format v2: categorical
// attributes as bitpacked dictionary codes, continuous attributes as
// frame-of-reference packed lanes where their values allow it and as
// float64s otherwise, each with a missing bitmap. The row-oriented API
// (Append, Row) remains the compatibility surface; the packed columns are
// what the workload scan kernel (Atoms) evaluates against.
//
// A table is built and then sealed. Append and ReadCSV take rows through
// the column encoder (encode.go), which holds them as cells; the first
// read — Row, Floats, ColumnData, a scan's Bind, a Projection — packs the
// cells, once, and from then on the table is read-only: a later Append is
// refused. Tables over external column storage (TableFromColumns) are
// sealed from the start.
//
// Cells whose Value kind does not match the attribute kind (a Num in a
// categorical column, a Str in a continuous one — impossible via CSV but
// expressible through Append) are kept exactly in a side table of
// "misfits"; the scan kernel evaluates those rows row-at-a-time so its
// answers match Predicate.Eval bit for bit.
type Table struct {
	schema *Schema
	n      int
	cats   []*catColumn // by attribute position, nil for continuous
	nums   []*numColumn // by attribute position, nil for categorical

	misfits    []map[int]Value // by attribute position, nil until needed
	misfitRows []int           // sorted unique rows with any misfit cell

	// build is what Append and ReadCSV accumulated; the seal packs it into
	// cats and nums, once, and drops it. nil for a sealed table.
	build    *tableBuild
	sealOnce sync.Once

	// proj holds the projections built over the table's columns
	// (projection.go); nil only for a projection's own table.
	proj *memo.Cache[string, *Projection]
}

// tableBuild is an unsealed table's columns as the encoder's cells, one
// slice per block, so that no cell is copied before the seal packs it.
type tableBuild struct {
	enc     []*ColumnEncoder
	lanes   [][][]uint32 // categorical cells, by attribute position
	cells   [][][]uint64 // continuous cells, by attribute position
	pending *Block       // appended rows not yet encoded
}

// NewTable returns an empty table over the schema.
func NewTable(schema *Schema) *Table {
	b := &tableBuild{
		enc:     make([]*ColumnEncoder, schema.Arity()),
		lanes:   make([][][]uint32, schema.Arity()),
		cells:   make([][][]uint64, schema.Arity()),
		pending: NewBlock(schema),
	}
	for pos, a := range schema.attrs {
		b.enc[pos] = NewColumnEncoder(a)
	}
	return &Table{
		schema:  schema,
		cats:    make([]*catColumn, schema.Arity()),
		nums:    make([]*numColumn, schema.Arity()),
		misfits: make([]map[int]Value, schema.Arity()),
		build:   b,
	}
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// Size returns the number of rows |D|.
func (t *Table) Size() int { return t.n }

// seal packs an unsealed table's cells into its columns, once; every read
// of the columns goes through it.
func (t *Table) seal() { t.sealOnce.Do(t.pack) }

// pack packs the columns on GOMAXPROCS workers and gives the sealed table
// its projection cache.
func (t *Table) pack() {
	if t.build == nil {
		return
	}
	t.flush()
	var wg sync.WaitGroup
	next := make(chan int, t.schema.Arity())
	for pos := range t.schema.attrs {
		next <- pos
	}
	close(next)
	for range min(runtime.GOMAXPROCS(0), t.schema.Arity()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pos := range next {
				t.packColumn(pos)
			}
		}()
	}
	wg.Wait()
	t.build = nil
	t.proj = memo.New[string, *Projection](t.projectionBound())
}

// packColumn packs one column's cells, block by block, dropping each
// block's cells once packed.
func (t *Table) packColumn(pos int) {
	b, e := t.build, t.build.enc[pos]
	pk := e.Packer()
	words := make([]uint64, 0, PackedWordCount(t.n, pk.Width()))
	if e.cat {
		for i, lanes := range b.lanes[pos] {
			words, b.lanes[pos][i] = pk.Lanes(words, lanes), nil
		}
		t.cats[pos] = &catColumn{packed: &PackedInts{Width: pk.Width(), N: t.n, Words: pk.Flush(words)}, dict: e.dict, index: e.index}
		return
	}
	for i, cells := range b.cells[pos] {
		var err error
		if words, err = pk.Cells(words, cells); err != nil {
			panic(err) // the merged frame holds every value it accepted (FoRFrame)
		}
		b.cells[pos][i] = nil
	}
	col := &numColumn{missing: Bitmap{n: t.n, words: e.missing}}
	if f := pk.Frame(); f != nil {
		f.Ints.N, f.Ints.Words = t.n, pk.Flush(words)
		col.packed = f
	} else {
		col.vals = float64s(words)
	}
	t.nums[pos] = col
}

// float64s views float64 bits as the float64s.
func float64s(words []uint64) []float64 {
	if len(words) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&words[0])), len(words))
}

// Row materializes the i-th tuple from the columns. The returned tuple is
// a fresh copy; mutating it does not affect the table.
func (t *Table) Row(i int) Tuple {
	t.seal()
	row := make(Tuple, t.schema.Arity())
	for pos := range row {
		row[pos] = t.value(pos, i)
	}
	return row
}

// value reconstructs one cell from columnar storage.
func (t *Table) value(pos, i int) Value {
	if c := t.cats[pos]; c != nil {
		switch code := c.codeAt(i); {
		case code >= 0:
			return Str(c.dict[code])
		case code == nullCode:
			return Null
		default:
			return t.misfits[pos][i]
		}
	}
	c := t.nums[pos]
	if !c.missing.Get(i) {
		return Num(c.floatAt(i))
	}
	if m := t.misfits[pos]; m != nil {
		if v, ok := m[i]; ok {
			return v
		}
	}
	return Null
}

// Append adds a tuple; it must have the schema's arity. The cells are
// copied into the table's columns, so the caller may reuse the tuple. A
// sealed table — one that has been read — refuses it.
func (t *Table) Append(row Tuple) error {
	b := t.build
	if b == nil {
		return fmt.Errorf("dataset: table is sealed (it has been read, or its columns are external storage)")
	}
	if len(row) != t.schema.Arity() {
		return fmt.Errorf("dataset: tuple arity %d, schema arity %d", len(row), t.schema.Arity())
	}
	if b.pending.AddRow(row, t.addMisfit) {
		t.flush()
	}
	t.n++
	return nil
}

// flush encodes the appended rows the pending block holds.
func (t *Table) flush() {
	if p := t.build.pending; p.Rows > 0 {
		t.encode(p)
		p.Reset()
	}
}

// encode turns a block of rows into the columns' cells: each block-local
// dictionary maps onto the column's in order, so codes are those
// row-at-a-time appends would have given, and each block's frame merges
// into the column's.
func (t *Table) encode(blk *Block) {
	b := t.build
	for pos, e := range b.enc {
		if e.cat {
			b.lanes[pos] = append(b.lanes[pos], e.AppendLanes(make([]uint32, 0, blk.Rows), &blk.Cols[pos]))
		} else {
			b.cells[pos] = append(b.cells[pos], e.AppendCells(make([]uint64, 0, blk.Rows), &blk.Cols[pos], blk.Rows))
		}
	}
}

// MustAppend is Append that panics on error.
func (t *Table) MustAppend(row Tuple) {
	if err := t.Append(row); err != nil {
		panic(err)
	}
}

// addMisfit records the kind-mismatched cell for row t.n (the row being
// appended). misfitRows stays sorted because rows only grow.
func (t *Table) addMisfit(pos int, v Value) {
	if t.misfits[pos] == nil {
		t.misfits[pos] = make(map[int]Value)
	}
	t.misfits[pos][t.n] = v
	if len(t.misfitRows) == 0 || t.misfitRows[len(t.misfitRows)-1] != t.n {
		t.misfitRows = append(t.misfitRows, t.n)
	}
}

// Floats exposes the float64 column of a continuous attribute at schema
// position pos: vals[i] is the row-i value wherever missing bit i is
// clear. ok is false for categorical attributes. The returned slices are
// views into the table and must be treated as read-only. For a
// frame-of-reference packed column the slice is a lazily decoded copy,
// materialized once per column and cached — random-access consumers like
// the exact sums keep a real slice while the atom classifier stays on the
// packed words.
func (t *Table) Floats(pos int) (vals []float64, missing *Bitmap, ok bool) {
	t.seal()
	if pos < 0 || pos >= len(t.nums) || t.nums[pos] == nil {
		return nil, nil, false
	}
	c := t.nums[pos]
	return c.floats(), &c.missing, true
}

// Count returns the number of rows satisfying p, row-at-a-time: the
// reference the workload scan kernel is checked against.
func (t *Table) Count(p Predicate) int {
	var n int
	for i := 0; i < t.n; i++ {
		if p.Eval(t.schema, t.Row(i)) {
			n++
		}
	}
	return n
}
