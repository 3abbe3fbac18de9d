package dataset

import (
	"fmt"
	"sort"

	"repro/internal/memo"
)

// Tuple is one row; cells are indexed by schema position.
type Tuple []Value

// Table is a multiset of tuples conforming to a schema, stored
// column-major: categorical attributes as dictionary-encoded int32 codes,
// continuous attributes as packed float64s with a missing bitmap. The
// row-oriented API (Append, Row) remains the compatibility surface; the
// columnar layout is what the workload scan kernel (Atoms) evaluates
// against.
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

	// sealed marks a table whose columns alias external (possibly
	// read-only mmap'd) storage; Append must not grow or mutate them.
	sealed bool
	// adviseCols/releaseCols, when set, are the storage layer's
	// column-granular warmup and cool-down hooks (SetColumnHints in
	// raw.go).
	adviseCols  func(cols []int)
	releaseCols func(cols []int)

	// proj holds the projections built over the packed columns of a table
	// TableFromColumns sealed (projection.go); nil for every other table.
	proj *memo.Cache[string, *Projection]
}

// NewTable returns an empty table over the schema.
func NewTable(schema *Schema) *Table {
	t := &Table{
		schema:  schema,
		cats:    make([]*catColumn, schema.Arity()),
		nums:    make([]*numColumn, schema.Arity()),
		misfits: make([]map[int]Value, schema.Arity()),
	}
	for pos, a := range schema.attrs {
		if a.Kind == Categorical {
			t.cats[pos] = newCatColumn(a.Values)
		} else {
			t.nums[pos] = &numColumn{}
		}
	}
	return t
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// Size returns the number of rows |D|.
func (t *Table) Size() int { return t.n }

// Row materializes the i-th tuple from the columns. The returned tuple is
// a fresh copy; mutating it does not affect the table.
func (t *Table) Row(i int) Tuple {
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
// copied into the table's columns, so the caller may reuse the tuple.
func (t *Table) Append(row Tuple) error {
	if t.sealed {
		return fmt.Errorf("dataset: table is sealed (columns alias external storage)")
	}
	if len(row) != t.schema.Arity() {
		return fmt.Errorf("dataset: tuple arity %d, schema arity %d", len(row), t.schema.Arity())
	}
	for pos, v := range row {
		t.appendCell(pos, v)
	}
	t.n++
	return nil
}

// appendBlock appends a block of CSV records: each block-local dictionary
// maps onto the column's in order, so codes are those row-at-a-time
// appends would have given. CSV blocks hold no kind-mismatched cells.
func (t *Table) appendBlock(b *Block) {
	var remap []int32
	for pos, bc := range b.Cols {
		if c := t.cats[pos]; c != nil {
			remap = remap[:0]
			for _, s := range bc.Dict {
				remap = append(remap, c.code(s))
			}
			for _, code := range bc.Codes {
				if code >= 0 {
					code = remap[code]
				}
				c.codes = append(c.codes, code)
			}
			continue
		}
		c := t.nums[pos]
		c.vals = bc.AppendFloats(c.vals)
		c.missing.words = AppendBits(c.missing.words, c.missing.n, bc.Missing, b.Rows)
		c.missing.n += b.Rows
	}
	t.n += b.Rows
}

// MustAppend is Append that panics on error.
func (t *Table) MustAppend(row Tuple) {
	if err := t.Append(row); err != nil {
		panic(err)
	}
}

func (t *Table) appendCell(pos int, v Value) {
	if c := t.cats[pos]; c != nil {
		switch v.kind {
		case strValue:
			c.codes = append(c.codes, c.code(v.str))
		case nullValue:
			c.codes = append(c.codes, nullCode)
		default:
			c.codes = append(c.codes, misfitCode)
			t.addMisfit(pos, v)
		}
		return
	}
	c := t.nums[pos]
	switch v.kind {
	case numValue:
		c.vals = append(c.vals, v.num)
		c.missing.appendBit(false)
	case nullValue:
		c.vals = append(c.vals, 0)
		c.missing.appendBit(true)
	default:
		c.vals = append(c.vals, 0)
		c.missing.appendBit(true)
		t.addMisfit(pos, v)
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
// frame-of-reference packed column (v2 segments) the slice is a lazily
// decoded copy, materialized once per column and cached — random-access
// consumers like the exact sums keep a real slice while the atom
// classifier stays on the packed words.
func (t *Table) Floats(pos int) (vals []float64, missing *Bitmap, ok bool) {
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

// Sample returns a new table with the first n rows (or all rows if fewer).
func (t *Table) Sample(n int) *Table {
	if n > t.n {
		n = t.n
	}
	out := &Table{
		schema:  t.schema,
		n:       n,
		cats:    make([]*catColumn, len(t.cats)),
		nums:    make([]*numColumn, len(t.nums)),
		misfits: make([]map[int]Value, len(t.misfits)),
	}
	for pos := range t.cats {
		if t.cats[pos] != nil {
			out.cats[pos] = t.cats[pos].clonePrefix(n)
		} else {
			out.nums[pos] = t.nums[pos].clonePrefix(n)
		}
		if m := t.misfits[pos]; m != nil {
			for row, v := range m {
				if row < n {
					if out.misfits[pos] == nil {
						out.misfits[pos] = make(map[int]Value)
					}
					out.misfits[pos][row] = v
				}
			}
		}
	}
	for _, row := range t.misfitRows {
		if row < n {
			out.misfitRows = append(out.misfitRows, row)
		}
	}
	return out
}

// DistinctValues returns the sorted distinct non-null string values of an
// attribute present in the table (a helper for exploration tooling; the
// public domain remains the schema's).
func (t *Table) DistinctValues(attr string) ([]string, error) {
	idx, ok := t.schema.Lookup(attr)
	if !ok {
		return nil, fmt.Errorf("dataset: unknown attribute %q", attr)
	}
	set := make(map[string]struct{})
	if c := t.cats[idx]; c != nil {
		seen := make([]bool, len(c.dict))
		for i := 0; i < t.n; i++ {
			if code := c.codeAt(i); code >= 0 {
				seen[code] = true
			}
		}
		for id, s := range seen {
			if s {
				set[c.dict[id]] = struct{}{}
			}
		}
	}
	// String values can also hide in a continuous column as misfits.
	if m := t.misfits[idx]; m != nil {
		for _, v := range m {
			if s, ok := v.AsStr(); ok {
				set[s] = struct{}{}
			}
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out, nil
}
