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

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Sentinel codes of catColumn: cells that hold no dictionary string.
const (
	nullCode   int32 = -1 // NULL cell
	misfitCode int32 = -2 // kind-mismatched cell, stored in Table.misfits
)

// catColumn is the dictionary-encoded storage of a categorical attribute:
// the codes bitpacked with PackedCodeBias. The dictionary is seeded with
// the public domain (so domain values get stable codes) and grows with any
// out-of-domain strings the data carries.
type catColumn struct {
	packed *PackedInts // biased lanes: code + PackedCodeBias
	dict   []string
	index  map[string]int32
}

// codeAt returns the row-i dictionary code.
func (c *catColumn) codeAt(i int) int32 { return int32(c.packed.At(i)) - PackedCodeBias }

// numColumn is the storage of a continuous attribute: its
// frame-of-reference packed form, or one float64 per row where the values
// allow none (exactly one of packed/vals is set), plus a missing bitmap
// (set where the cell holds no number — NULL or a kind-mismatched value
// recorded in Table.misfits).
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
// on demand (missing rows decode as 0, the raw convention).
func (c *numColumn) floats() []float64 {
	if c.packed == nil {
		return c.vals
	}
	c.decodeOnce.Do(func() {
		c.vals = c.packed.unpackVals(c.missing.words)
	})
	return c.vals
}
