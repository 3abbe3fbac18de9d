package dataset

import (
	"math/bits"
	"sync"
)

// Bitmap is a fixed-length bitset over row indices — a continuous
// column's missing rows (NULLs and misfits). The zero value is an empty
// bitmap; Reset sizes it. Bitmaps are not safe for concurrent mutation.
type Bitmap struct {
	n     int
	words []uint64
}

// Reset resizes the bitmap to n rows and clears every bit, reusing the
// backing storage when it is large enough.
func (b *Bitmap) Reset(n int) {
	w := (n + 63) >> 6
	if cap(b.words) < w {
		b.words = make([]uint64, w)
	} else {
		b.words = b.words[:w]
		for i := range b.words {
			b.words[i] = 0
		}
	}
	b.n = n
}

// Len returns the number of rows the bitmap covers.
func (b *Bitmap) Len() int { return b.n }

// Set sets bit i.
func (b *Bitmap) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Get reports bit i.
func (b *Bitmap) Get(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// maskTail zeroes the unused bits of the last word so Count stays exact.
func (b *Bitmap) maskTail() {
	if r := uint(b.n) & 63; r != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << r) - 1
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// appendBit grows the bitmap by one row, optionally setting it.
func (b *Bitmap) appendBit(set bool) {
	i := b.n
	b.n++
	if w := (b.n + 63) >> 6; w > len(b.words) {
		if w <= cap(b.words) {
			b.words = b.words[:w]
			b.words[w-1] = 0
		} else {
			nw := make([]uint64, w, 2*w+2)
			copy(nw, b.words)
			b.words = nw
		}
	}
	if set {
		b.Set(i)
	}
}

// clonePrefix returns an independent copy of the first n rows.
func (b *Bitmap) clonePrefix(n int) Bitmap {
	var out Bitmap
	out.Reset(n)
	copy(out.words, b.words)
	out.maskTail()
	return out
}

// Sentinel codes of catColumn: cells that hold no dictionary string.
const (
	nullCode   int32 = -1 // NULL cell
	misfitCode int32 = -2 // kind-mismatched cell, stored in Table.misfits
)

// catColumn is the dictionary-encoded storage of a categorical attribute:
// one int32 code per row indexing dict, or — for sealed tables built over
// segment-format-v2 storage — the bitpacked form of the same codes
// (exactly one of codes/packed is set). The dictionary is seeded with the
// public domain (so domain values get stable codes) and grows with any
// out-of-domain strings the data carries.
type catColumn struct {
	codes  []int32
	packed *PackedInts // biased lanes: code + PackedCodeBias
	dict   []string
	index  map[string]int32
}

func newCatColumn(domain []string) *catColumn {
	c := &catColumn{index: make(map[string]int32, len(domain))}
	for _, v := range domain {
		c.code(v)
	}
	return c
}

// code interns v, returning its dictionary code.
func (c *catColumn) code(v string) int32 {
	if id, ok := c.index[v]; ok {
		return id
	}
	id := int32(len(c.dict))
	c.dict = append(c.dict, v)
	c.index[v] = id
	return id
}

// codeAt returns the row-i dictionary code regardless of representation.
func (c *catColumn) codeAt(i int) int32 {
	if c.packed != nil {
		return int32(c.packed.At(i)) - PackedCodeBias
	}
	return c.codes[i]
}

func (c *catColumn) clonePrefix(n int) *catColumn {
	out := &catColumn{
		dict:  append([]string(nil), c.dict...),
		index: make(map[string]int32, len(c.index)),
	}
	if c.packed != nil {
		// Samples are small heap tables; decode rather than repack.
		out.codes = c.packed.unpackCodes(n)
	} else {
		out.codes = append([]int32(nil), c.codes[:n]...)
	}
	for k, v := range c.index {
		out.index[k] = v
	}
	return out
}

// numColumn is the storage of a continuous attribute: one float64 per
// row — or its frame-of-reference packed form for sealed v2 tables
// (exactly one of vals/packed is set) — plus a missing bitmap (set where
// the cell holds no number — NULL or a kind-mismatched value recorded in
// Table.misfits).
type numColumn struct {
	vals    []float64
	packed  *PackedFloats
	missing Bitmap

	// decodeOnce guards the lazy vals materialization a packed column
	// performs the first time a consumer needs random float64 access
	// (Table.Floats); the predicate kernels never trigger it.
	decodeOnce sync.Once
}

// floatAt returns the row-i value regardless of representation; only
// meaningful where the missing bit is clear.
func (c *numColumn) floatAt(i int) float64 {
	if c.packed != nil {
		return c.packed.At(i)
	}
	return c.vals[i]
}

// floats returns the full float64 slice, decoding a packed column once
// on demand (missing rows decode as 0, the unpacked convention).
func (c *numColumn) floats() []float64 {
	if c.packed == nil {
		return c.vals
	}
	c.decodeOnce.Do(func() {
		c.vals = c.packed.unpackVals(c.packed.Ints.N, c.missing.words)
	})
	return c.vals
}

func (c *numColumn) clonePrefix(n int) *numColumn {
	out := &numColumn{missing: c.missing.clonePrefix(n)}
	if c.packed != nil {
		out.vals = c.packed.unpackVals(n, out.missing.words)
	} else {
		out.vals = append([]float64(nil), c.vals[:n]...)
	}
	return out
}
