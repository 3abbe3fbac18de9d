package dataset

import (
	"fmt"
	"sort"

	"repro/internal/memo"
)

// This file is the raw-column boundary between Table and external column
// storage (internal/colstore): it exports a table's typed columns for
// serialization and rebuilds a Table over caller-provided column slices —
// including slices that alias a read-only mmap region — so workload
// scans run unchanged over disk-resident data.

// ColumnData is the raw storage of one attribute, in schema position
// order. Exactly one of the categorical (Codes/Dict) or continuous
// (Vals/MissingWords) halves is populated, matching Kind. All slices must
// be treated as read-only: for tables built by TableFromColumns they may
// alias a read-only file mapping, where a write faults.
type ColumnData struct {
	Kind AttrKind

	// Categorical: one dictionary code per row. Codes >= 0 index Dict;
	// the sentinels (NULL, misfit) match the table's internal encoding.
	// PackedCodes is the segment-format-v2 alternative: the same codes
	// bitpacked with PackedCodeBias. Exactly one of Codes/PackedCodes is
	// set for a categorical column.
	Codes       []int32
	PackedCodes *PackedInts
	Dict        []string

	// Continuous: one float64 per row plus the missing bitmap (64 rows
	// per word, row i at word i/64 bit i%64; tail bits zero). A set bit
	// means the cell holds no number (NULL, or a misfit cell).
	// PackedVals is the v2 frame-of-reference alternative to Vals
	// (integers, or fixed-point decimals when its Exp > 0); exactly one of
	// the two is set for a continuous column.
	Vals         []float64
	PackedVals   *PackedFloats
	MissingWords []uint64
}

// MisfitCell is one kind-mismatched cell of the side table: the exact
// Value stored at (Row, Pos). Misfits only arise from programmatic
// Append; CSV ingest never produces them.
type MisfitCell struct {
	Row, Pos int
	Value    Value
}

// ColumnData returns the raw storage of the attribute at schema position
// pos. The returned slices are views into the table — read-only.
func (t *Table) ColumnData(pos int) ColumnData {
	if c := t.cats[pos]; c != nil {
		return ColumnData{Kind: Categorical, Codes: c.codes, PackedCodes: c.packed, Dict: c.dict}
	}
	c := t.nums[pos]
	if c.packed != nil {
		// c.vals may hold the lazy Floats decode; the packed words stay
		// the canonical storage.
		return ColumnData{Kind: Continuous, PackedVals: c.packed, MissingWords: c.missing.words}
	}
	return ColumnData{Kind: Continuous, Vals: c.vals, MissingWords: c.missing.words}
}

// MisfitRows returns the sorted rows holding any kind-mismatched cell —
// the rows a columnar scan must evaluate row-at-a-time. Read-only; empty
// for every table built from CSV.
func (t *Table) MisfitRows() []int { return t.misfitRows }

// MisfitCells returns every kind-mismatched cell, ordered by row then
// schema position. Empty for every table built from CSV.
func (t *Table) MisfitCells() []MisfitCell {
	var out []MisfitCell
	for _, row := range t.misfitRows {
		for pos := range t.misfits {
			if m := t.misfits[pos]; m != nil {
				if v, ok := m[row]; ok {
					out = append(out, MisfitCell{Row: row, Pos: pos, Value: v})
				}
			}
		}
	}
	return out
}

// TableFromColumns builds a table directly over the given column slices,
// which must be in schema position order and sized to n rows. The table
// takes the slices as-is — zero-copy — so they may alias an mmap'd
// segment; the table is sealed: Append returns an error rather than
// growing (and possibly reallocating away from) the mapped storage.
//
// The columns are validated structurally (arity, kinds, lengths, code
// bounds, unique dictionary entries, misfit consistency) so that a
// corrupted-but-checksum-valid input cannot index out of bounds later.
func TableFromColumns(schema *Schema, n int, cols []ColumnData, misfits []MisfitCell) (*Table, error) {
	if n < 0 {
		return nil, fmt.Errorf("dataset: negative row count %d", n)
	}
	if len(cols) != schema.Arity() {
		return nil, fmt.Errorf("dataset: %d columns for schema arity %d", len(cols), schema.Arity())
	}
	t := &Table{
		schema:  schema,
		n:       n,
		sealed:  true,
		cats:    make([]*catColumn, schema.Arity()),
		nums:    make([]*numColumn, schema.Arity()),
		misfits: make([]map[int]Value, schema.Arity()),
	}
	words := (n + 63) >> 6
	for pos, a := range schema.attrs {
		col := cols[pos]
		if col.Kind != a.Kind {
			return nil, fmt.Errorf("dataset: column %d kind %v, schema wants %v", pos, col.Kind, a.Kind)
		}
		if a.Kind == Categorical {
			c := &catColumn{codes: col.Codes, packed: col.PackedCodes, dict: col.Dict, index: make(map[string]int32, len(col.Dict))}
			for id, s := range col.Dict {
				if _, dup := c.index[s]; dup {
					return nil, fmt.Errorf("dataset: column %d dictionary has duplicate entry %q", pos, s)
				}
				c.index[s] = int32(id)
			}
			switch {
			case col.PackedCodes != nil:
				if col.Codes != nil {
					return nil, fmt.Errorf("dataset: column %d has both unpacked and packed codes", pos)
				}
				maxLane := uint64(len(col.Dict) + PackedCodeBias)
				if err := col.PackedCodes.validate(n, maxLane); err != nil {
					return nil, fmt.Errorf("column %d: %w", pos, err)
				}
			default:
				if len(col.Codes) != n {
					return nil, fmt.Errorf("dataset: column %d has %d codes for %d rows", pos, len(col.Codes), n)
				}
				max := int32(len(col.Dict))
				for i, code := range col.Codes {
					if code >= max || code < misfitCode {
						return nil, fmt.Errorf("dataset: column %d row %d code %d out of range [%d,%d)", pos, i, code, misfitCode, max)
					}
				}
			}
			t.cats[pos] = c
			continue
		}
		if len(col.MissingWords) != words {
			return nil, fmt.Errorf("dataset: column %d missing bitmap has %d words, want %d", pos, len(col.MissingWords), words)
		}
		switch {
		case col.PackedVals != nil:
			if col.Vals != nil {
				return nil, fmt.Errorf("dataset: column %d has both unpacked and packed values", pos)
			}
			if err := col.PackedVals.validate(n); err != nil {
				return nil, fmt.Errorf("column %d: %w", pos, err)
			}
		default:
			if len(col.Vals) != n {
				return nil, fmt.Errorf("dataset: column %d has %d values for %d rows", pos, len(col.Vals), n)
			}
		}
		t.nums[pos] = &numColumn{
			vals:    col.Vals,
			packed:  col.PackedVals,
			missing: Bitmap{n: n, words: col.MissingWords},
		}
	}
	rowSet := make(map[int]bool, len(misfits))
	for _, m := range misfits {
		if m.Row < 0 || m.Row >= n || m.Pos < 0 || m.Pos >= schema.Arity() {
			return nil, fmt.Errorf("dataset: misfit cell (%d,%d) out of range", m.Row, m.Pos)
		}
		if c := t.cats[m.Pos]; c != nil && c.codeAt(m.Row) != misfitCode {
			return nil, fmt.Errorf("dataset: misfit cell (%d,%d) but code is %d", m.Row, m.Pos, c.codeAt(m.Row))
		}
		if c := t.nums[m.Pos]; c != nil && !c.missing.Get(m.Row) {
			return nil, fmt.Errorf("dataset: misfit cell (%d,%d) but missing bit is clear", m.Row, m.Pos)
		}
		if t.misfits[m.Pos] == nil {
			t.misfits[m.Pos] = make(map[int]Value)
		}
		t.misfits[m.Pos][m.Row] = m.Value
		rowSet[m.Row] = true
	}
	// Every misfitCode cell must have its side-table entry, or Row(i)
	// would index a nil map.
	for pos, c := range t.cats {
		if c == nil {
			continue
		}
		for i := 0; i < n; i++ {
			if c.codeAt(i) == misfitCode {
				if t.misfits[pos] == nil || !rowSet[i] {
					return nil, fmt.Errorf("dataset: column %d row %d marked misfit without a side-table entry", pos, i)
				}
				if _, ok := t.misfits[pos][i]; !ok {
					return nil, fmt.Errorf("dataset: column %d row %d marked misfit without a side-table entry", pos, i)
				}
			}
		}
	}
	t.misfitRows = make([]int, 0, len(rowSet))
	for row := range rowSet {
		t.misfitRows = append(t.misfitRows, row)
	}
	sort.Ints(t.misfitRows)
	t.proj = memo.New[string, *Projection](t.projectionBound())
	return t, nil
}

// Sealed reports whether the table rejects Append (tables built over
// external column storage by TableFromColumns).
func (t *Table) Sealed() bool { return t.sealed }

// SetColumnHints installs the column-granular storage hints: advise is
// called with the schema positions an imminent batched scan will read
// (madvise(WILLNEED) over just those byte ranges), release with
// positions that have gone cold (DONTNEED). The column store installs
// both on every table it opens; heap tables leave them unset.
func (t *Table) SetColumnHints(advise, release func(cols []int)) {
	t.adviseCols = advise
	t.releaseCols = release
}

// PrefetchColumns advises the storage layer that a scan over the given
// schema positions is imminent. No-op for heap tables.
func (t *Table) PrefetchColumns(cols []int) {
	if t.adviseCols != nil {
		t.adviseCols(cols)
	}
}

// ReleaseColumns tells the storage layer the given schema positions have
// gone cold and their pages may be dropped. No-op for heap tables.
func (t *Table) ReleaseColumns(cols []int) {
	if t.releaseCols != nil {
		t.releaseCols(cols)
	}
}

// ColumnScanBytes returns the number of bytes one full pass over the
// attribute at schema position pos reads from the column storage — the
// packed words for a v2 column, the full-width slices otherwise.
// This is the per-column term of the scan-bandwidth accounting
// (apex_scan_bytes_total, BenchmarkCompressedScan).
func (t *Table) ColumnScanBytes(pos int) int64 {
	if pos < 0 || pos >= t.schema.Arity() {
		return 0
	}
	if c := t.cats[pos]; c != nil {
		if c.packed != nil {
			return int64(len(c.packed.Words)) * 8
		}
		return int64(len(c.codes)) * 4
	}
	c := t.nums[pos]
	b := int64(len(c.missing.words)) * 8
	if c.packed != nil {
		return b + int64(len(c.packed.Ints.Words))*8
	}
	return b + int64(len(c.vals))*8
}
