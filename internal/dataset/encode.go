package dataset

import (
	"fmt"
	"math"
)

// This file is the one column encoder. Every table gets its columns from
// it — a heap table through Append and ReadCSV, a segment through
// colstore.Builder — so a column is encoded by the same rules wherever it
// lives: categorical codes bitpack at PackedCodeWidth, a continuous column
// frame-of-reference packs when its merged FoRFrame holds (Packing), and
// stays raw float64 otherwise.
//
// Encoding is two passes. A ColumnEncoder takes the column's blocks in
// row order: it interns each block's dictionary, merges each block's frame
// and turns the rows into cells — a biased lane per categorical row, and
// per continuous row its scaled integer at the column's exponent of the
// moment, or its float64 bits once the column is raw. Where the cells wait
// is the caller's: a heap table keeps them in memory, the Builder spills
// them to a file. Once every block is in, the encoder's ColumnPacker
// streams the cells, in row order, into the sealed column's words.

// ColumnEncoder is one column's encoding state: for a categorical column
// the dictionary, seeded with the public domain so that domain values get
// the same codes in every table; for a continuous one the missing bitmap,
// the frame merged from the blocks' frames in row order, and the runs its
// cells came in.
type ColumnEncoder struct {
	cat bool

	dict  []string
	index map[string]int32
	remap []uint32 // a block's local codes -> lanes

	rows    int
	missing []uint64
	frame   FoRFrame
	runs    []cellRun
	floats  []float64 // a block's values once the column is raw
}

// cellRun is a stretch of consecutive continuous cells in one form:
// integers at decimal exponent exp (the values times 10^exp, 0 where
// missing), or float64 bits when exp is rawRun. The column's exponent only
// rises and a raw column stays raw, so a column has at most
// MaxDecimalExp+2 runs.
type cellRun struct{ rows, exp int }

const rawRun = -1

// NewColumnEncoder returns the encoder of an empty column of the attribute.
func NewColumnEncoder(a Attribute) *ColumnEncoder {
	e := &ColumnEncoder{cat: a.Kind == Categorical}
	if e.cat {
		e.index = make(map[string]int32, len(a.Values))
		for _, v := range a.Values {
			e.intern(v)
		}
	}
	return e
}

func (e *ColumnEncoder) intern(s string) int32 {
	if id, ok := e.index[s]; ok {
		return id
	}
	id := int32(len(e.dict))
	e.dict = append(e.dict, s)
	e.index[s] = id
	return id
}

// Dict returns a categorical column's dictionary. Read-only.
func (e *ColumnEncoder) Dict() []string { return e.dict }

// Missing returns a continuous column's missing bitmap, ⌈rows/64⌉ words.
// Read-only.
func (e *ColumnEncoder) Missing() []uint64 { return e.missing }

// AppendLanes interns a categorical block column's dictionary, in order,
// and appends each row's lane to dst: its code in the column's dictionary,
// or its sentinel, plus PackedCodeBias.
func (e *ColumnEncoder) AppendLanes(dst []uint32, bc *BlockColumn) []uint32 {
	e.remap = e.remap[:0]
	for _, s := range bc.Dict {
		e.remap = append(e.remap, uint32(e.intern(s)+PackedCodeBias))
	}
	for _, code := range bc.Codes {
		lane := uint32(code + PackedCodeBias)
		if code >= 0 {
			lane = e.remap[code]
		}
		dst = append(dst, lane)
	}
	e.rows += len(bc.Codes)
	return dst
}

// AppendCells merges a continuous block column of rows rows into the
// column and appends each row's cell to dst. While the column packs, a
// cell is the row's scaled integer at the column's exponent (the block's
// moved up to it); once the column is raw, the row's float64 bits.
func (e *ColumnEncoder) AppendCells(dst []uint64, bc *BlockColumn, rows int) []uint64 {
	e.frame.Merge(&bc.Frame)
	exp, packs := e.frame.Exp()
	if packs {
		bexp, _ := bc.Frame.Exp()
		mul := pow10i[exp-bexp]
		for _, n := range bc.Scaled {
			dst = append(dst, uint64(n*mul))
		}
	} else {
		exp = rawRun
		e.floats = bc.AppendFloats(e.floats[:0])
		for _, v := range e.floats {
			dst = append(dst, math.Float64bits(v))
		}
	}
	if n := len(e.runs); n > 0 && e.runs[n-1].exp == exp {
		e.runs[n-1].rows += rows
	} else {
		e.runs = append(e.runs, cellRun{rows: rows, exp: exp})
	}
	e.missing = AppendBits(e.missing, e.rows, bc.Missing, rows)
	e.rows += rows
	return dst
}

// ColumnPacker turns a column's cells, in row order, into the words of its
// sealed form: lanes of Width bits packed no-straddle (PackedInts' layout),
// or for a raw column one float64 per word. It is the encoder's second
// pass; ColumnEncoder.Packer makes one once every block is in.
type ColumnPacker struct {
	width uint
	lpw   int
	cur   uint64 // the word being filled
	lane  int    // lanes in cur

	// Continuous: the frame (nil for a raw column), the cells' runs and the
	// missing bitmap, walked as the cells arrive.
	frame   *PackedFloats
	runs    []cellRun
	missing []uint64
	row     int // the next cell's row
	left    int // cells left in the current run
	exp     int // the current run's exponent
}

// Packer returns the packer of the encoder's cells: a categorical column's
// lanes at PackedCodeWidth of its dictionary, a continuous column's lanes
// in the frame Packing gives it, or its float64s when it has none.
func (e *ColumnEncoder) Packer() *ColumnPacker {
	if e.cat {
		return NewCodePacker(len(e.dict))
	}
	p := &ColumnPacker{runs: e.runs, missing: e.missing, width: 64}
	if f, ok := e.frame.Packing(); ok {
		p.frame, p.width = &f, uint(f.Ints.Width)
	}
	p.lpw = 64 / int(p.width)
	return p
}

// NewCodePacker returns the packer of a categorical column's lanes over a
// dictionary of dictSize entries.
func NewCodePacker(dictSize int) *ColumnPacker {
	w := PackedCodeWidth(dictSize)
	return &ColumnPacker{width: uint(w), lpw: 64 / w}
}

// Width returns the sealed column's lane width in bits: 64 for a raw
// column.
func (p *ColumnPacker) Width() int { return int(p.width) }

// Frame returns a continuous column's frame of reference — base, exponent
// and width, no lanes — or nil when the column is categorical or stays
// raw float64.
func (p *ColumnPacker) Frame() *PackedFloats { return p.frame }

// Lanes packs categorical lanes, each below 2^Width, onto dst.
func (p *ColumnPacker) Lanes(dst []uint64, lanes []uint32) []uint64 {
	w, lpw, cur, k := p.width, p.lpw, p.cur, p.lane
	for _, l := range lanes {
		cur |= uint64(l) << (uint(k) * w)
		if k++; k == lpw {
			dst = append(dst, cur)
			cur, k = 0, 0
		}
	}
	p.cur, p.lane = cur, k
	return dst
}

// Cells packs continuous cells onto dst. A packed column's lane is the
// cell's scaled integer moved up to the frame's exponent less the base —
// integers only; a missing row packs as lane 0, and a lane outside the
// frame's width is an error rather than be written as a neighbour. A raw
// column keeps float64 bits and turns its integer runs back into the
// float64s they stand for, bit for bit: each cell is n/10^exp at an
// exponent where its value round-trips. More cells than the column's rows
// are an error.
func (p *ColumnPacker) Cells(dst []uint64, cells []uint64) ([]uint64, error) {
	for len(cells) > 0 {
		if p.left == 0 {
			if len(p.runs) == 0 {
				return dst, fmt.Errorf("dataset: more cells than the column's %d rows", p.row)
			}
			p.left, p.exp = p.runs[0].rows, p.runs[0].exp
			p.runs = p.runs[1:]
			continue
		}
		n := min(p.left, len(cells))
		switch run := cells[:n]; {
		case p.frame != nil:
			var err error
			if dst, err = p.lanes(dst, run); err != nil {
				return dst, err
			}
		case p.exp == rawRun:
			dst = append(dst, run...)
		default:
			div := pow10[p.exp]
			for _, c := range run {
				dst = append(dst, math.Float64bits(float64(int64(c))/div))
			}
		}
		cells, p.left, p.row = cells[n:], p.left-n, p.row+n
	}
	return dst, nil
}

// lanes packs one run's scaled integers, the first at row p.row.
func (p *ColumnPacker) lanes(dst, run []uint64) ([]uint64, error) {
	f := p.frame
	mul, base := pow10i[f.Exp-p.exp], int64(f.Min)
	w, lpw, cur, k := p.width, p.lpw, p.cur, p.lane
	maxLane := uint64(1)<<w - 1
	for i, c := range run {
		lane := uint64(0)
		if row := p.row + i; p.missing[row>>6]&(1<<(uint(row)&63)) == 0 {
			if lane = uint64(int64(c)*mul - base); lane > maxLane {
				return dst, fmt.Errorf("dataset: row %d: %d at exponent %d is outside base %d, exponent %d, width %d",
					row, int64(c), p.exp, base, f.Exp, w)
			}
		}
		cur |= lane << (uint(k) * w)
		if k++; k == lpw {
			dst = append(dst, cur)
			cur, k = 0, 0
		}
	}
	p.cur, p.lane = cur, k
	return dst, nil
}

// Flush writes out the last, partly filled word.
func (p *ColumnPacker) Flush(dst []uint64) []uint64 {
	if p.lane > 0 {
		dst = append(dst, p.cur)
		p.cur, p.lane = 0, 0
	}
	return dst
}
