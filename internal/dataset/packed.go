package dataset

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Packed column storage: the in-memory (and mmap'd) form of segment
// format v2's lightweight encodings. Categorical dictionary codes are
// bitpacked to ⌈log2(dictSize+sentinels)⌉ bits per row; continuous
// columns whose values are all short decimals — integers, cents,
// hundredths of a mile — are frame-of-reference packed in their smallest
// exact decimal scale (value = (Min + lane) / 10^Exp). The atom
// classifier (classify.go) reads the packed words directly — a block
// unpack into lanes, never a materialized int32/float64 decode — so a
// scan moves width/32 (or width/64) of the bytes the unpacked layout
// would.
//
// Layout ("no-straddle", after SIMD-BP style packing): each uint64 word
// holds ⌊64/Width⌋ lanes, lane j at bits [j·Width, (j+1)·Width). Lanes
// never cross a word boundary, so kernels process whole words with no
// carry-in state. The unused high bits of each word (when Width does not
// divide 64) and the lanes past N in the final word are always zero —
// the canonical form TableFromColumns validates.

// PackedCodeBias is the offset that maps categorical dictionary codes —
// including the negative sentinels — into the unsigned packed lane
// domain: lane = code + PackedCodeBias, so misfitCode (−2) packs as 0,
// nullCode (−1) as 1, and dictionary code k as k+2.
const PackedCodeBias = 2

// PackedInts is a fixed-width bitpacked vector of N unsigned lanes.
type PackedInts struct {
	Width int      // lane bit width, 1..32
	N     int      // number of lanes
	Words []uint64 // ⌊64/Width⌋ lanes per word, no-straddle, tail zero
}

// PackedFloats is a frame-of-reference packed continuous column: the
// row-i value is (Min + float64(lane i)) / 10^Exp, with Min an integer —
// the column's smallest value in units of 10^−Exp. Exp 0 is segment
// encoding "for" (integers), Exp 1..MaxDecimalExp is "for10" (fixed-point
// decimals). Packing is only applied when that reconstruction returns
// every non-missing value bit for bit (FoRFrame decides); missing rows
// pack as lane 0 and are masked by the column's missing bitmap exactly as
// in the unpacked layout.
type PackedFloats struct {
	Ints PackedInts
	Min  float64
	Exp  int
}

// MaxDecimalExp is the largest decimal exponent a packed column may
// carry: micro-units. A column that needs more digits stays raw float64.
const MaxDecimalExp = 6

var pow10 = [MaxDecimalExp + 1]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6}

// maxBase bounds |Min + lane|: up to there the sum is exact and distinct
// lanes reconstruct to distinct float64s. It is also the bound on an
// integer column's values (exponent 0, where v·10^0 is v itself).
const maxBase = 1 << 52

// maxScaled is the tighter bound on |v·10^k| once k > 0: the product is
// off from the integer it stands for by at most |n|·2^−52, and below
// 2^50 that still rounds to the integer.
const maxScaled = 1 << 50

// scaledBound returns the largest |v·10^k| FoRFrame packs at exponent k.
func scaledBound(k int) float64 {
	if k == 0 {
		return maxBase
	}
	return maxScaled
}

// scaledInt returns the integer n = v·10^k when n/10^k gives v back bit
// for bit and |n| fits scaledBound(k). NaN, ±Inf and −0 (n + 0 is +0)
// never do.
func scaledInt(v float64, k int) (float64, bool) {
	n := math.Round(v * pow10[k])
	return n, math.Abs(n) <= scaledBound(k) && math.Float64bits((n+0)/pow10[k]) == math.Float64bits(v)
}

// FoRFrame decides a continuous column's packing one value at a time: it
// tracks the smallest decimal exponent at which every value seen so far
// round-trips, and the span of the scaled integers there. A value that
// round-trips at k does at k+1 too (n/10^k and 10n/10^(k+1) are the same
// correctly rounded quotient), so raising the exponent for a later value
// never invalidates an earlier one. The zero value is an empty column.
type FoRFrame struct {
	raw    bool // some value fits no frame: the column stays float64
	seen   bool
	exp    int
	lo, hi float64 // span of the scaled integers at exp
}

// Add folds one non-missing value into the frame.
func (f *FoRFrame) Add(v float64) {
	if f.raw {
		return
	}
	n, ok := scaledInt(v, f.exp)
	for !ok && f.exp < MaxDecimalExp {
		f.exp++
		f.lo, f.hi = f.lo*10, f.hi*10
		n, ok = scaledInt(v, f.exp)
	}
	if !f.seen || n < f.lo {
		f.lo = n
	}
	if !f.seen || n > f.hi {
		f.hi = n
	}
	f.seen = true
	b := scaledBound(f.exp)
	f.raw = !ok || f.hi-f.lo >= 1<<32 || -f.lo > b || f.hi > b
}

// Packing returns the column's frame — base, exponent and lane width, no
// lanes yet — or false when the column must stay raw. A column with no
// value at all packs trivially at width 1.
func (f *FoRFrame) Packing() (PackedFloats, bool) {
	if f.raw {
		return PackedFloats{}, false
	}
	w := bits.Len64(uint64(f.hi - f.lo))
	if w < 1 {
		w = 1
	}
	return PackedFloats{Ints: PackedInts{Width: w}, Min: f.lo, Exp: f.exp}, true
}

// LaneOf returns the lane that reconstructs to v, or false when none
// within the column's width does so bit for bit.
func (p *PackedFloats) LaneOf(v float64) (uint64, bool) {
	n, ok := scaledInt(v, p.Exp)
	l := n - p.Min
	if !ok || l < 0 || l >= float64(uint64(1)<<uint(p.Ints.Width)) {
		return 0, false
	}
	return uint64(l), true
}

// value reconstructs the float64 a lane stands for: a correctly rounded
// quotient of an exact sum (validate bounds Min so that it is), hence
// non-decreasing in the lane — all the threshold searches need.
func (p *PackedFloats) value(lane uint64) float64 {
	return (p.Min + float64(lane)) / pow10[p.Exp]
}

// PackedWordCount returns the number of uint64 words a no-straddle
// packing of n lanes at the given width occupies.
func PackedWordCount(n, width int) int {
	lpw := 64 / width
	return (n + lpw - 1) / lpw
}

// PackedCodeWidth returns the lane bit width for a categorical column
// whose dictionary has dictSize entries: enough for dictSize+2 biased
// codes, minimum 1.
func PackedCodeWidth(dictSize int) int {
	w := bits.Len(uint(dictSize + PackedCodeBias - 1))
	if w < 1 {
		w = 1
	}
	return w
}

// At returns lane i.
func (p *PackedInts) At(i int) uint64 {
	w := uint(p.Width)
	lpw := 64 / int(w)
	word := p.Words[i/lpw]
	return (word >> (uint(i%lpw) * w)) & (1<<w - 1)
}

// At returns the row-i value.
func (p *PackedFloats) At(i int) float64 { return p.value(p.Ints.At(i)) }

// unpackCodes materializes the first n biased lanes back into int32
// dictionary codes (lane − PackedCodeBias), for heap sampling.
func (p *PackedInts) unpackCodes(n int) []int32 {
	out := make([]int32, n)
	w := uint(p.Width)
	lpw := 64 / int(w)
	mask := uint64(1)<<w - 1
	for i := 0; i < n; {
		x := p.Words[i/lpw]
		end := i + lpw
		if end > n {
			end = n
		}
		for ; i < end; i++ {
			out[i] = int32(x&mask) - PackedCodeBias
			x >>= w
		}
	}
	return out
}

// unpackVals materializes the first n rows of the frame-of-reference
// column back into one float64 per row. Rows whose missing bit is set
// decode as 0, matching the unpacked layout's convention.
func (p *PackedFloats) unpackVals(n int, missing []uint64) []float64 {
	out := make([]float64, n)
	w := uint(p.Ints.Width)
	lpw := 64 / int(w)
	mask := uint64(1)<<w - 1
	for i := 0; i < n; {
		x := p.Ints.Words[i/lpw]
		end := i + lpw
		if end > n {
			end = n
		}
		for ; i < end; i++ {
			out[i] = p.value(x & mask)
			x >>= w
		}
	}
	for wi, mw := range missing {
		for mw != 0 {
			i := wi<<6 + bits.TrailingZeros64(mw)
			if i >= n {
				break
			}
			out[i] = 0
			mw &= mw - 1
		}
	}
	return out
}

// validate checks the frame — a decimal exponent within the cap and a
// finite integral base small enough that Min + lane is exact — then the
// lanes' canonical form.
func (p *PackedFloats) validate(n int) error {
	if p.Exp < 0 || p.Exp > MaxDecimalExp {
		return errPackedf("decimal exponent %d out of range [0,%d]", p.Exp, MaxDecimalExp)
	}
	if !(math.Abs(p.Min) <= maxBase) || math.Trunc(p.Min) != p.Min {
		return errPackedf("frame-of-reference base %v is not an integer within ±2^52", p.Min)
	}
	return p.Ints.validate(n, uint64(1)<<uint(p.Ints.Width))
}

// validate checks the canonical no-straddle form: width in range, the
// exact word count for n lanes, every lane below maxLane, and all slack
// — the unused high bits of every word and the lanes past n — zero.
// It is O(n), the packed counterpart of the unpacked code-bounds scan;
// when maxLane is the full 1<<Width (frame-of-reference lanes) no lane
// can exceed it and only the words' slack is looked at.
func (p *PackedInts) validate(n int, maxLane uint64) error {
	if p.Width < 1 || p.Width > 32 {
		return errPackedf("lane width %d out of range [1,32]", p.Width)
	}
	if p.N != n {
		return errPackedf("packed vector has %d lanes for %d rows", p.N, n)
	}
	if want := PackedWordCount(n, p.Width); len(p.Words) != want {
		return errPackedf("packed vector has %d words, want %d", len(p.Words), want)
	}
	w := uint(p.Width)
	lpw := 64 / int(w)
	used := uint(lpw) * w
	anyLane := maxLane >= uint64(1)<<w
	for wi, word := range p.Words {
		if used < 64 && word>>used != 0 {
			return errPackedf("word %d has nonzero slack bits", wi)
		}
		base := wi * lpw
		end := lpw
		if n-base < end {
			end = n - base
			// Lanes past n in the final word must be zero.
			if word>>(uint(end)*w) != 0 {
				return errPackedf("word %d has nonzero lanes past row %d", wi, n)
			}
		}
		if anyLane {
			continue
		}
		x := word
		for j := 0; j < end; j++ {
			if x&(1<<w-1) >= maxLane {
				return errPackedf("row %d lane %d out of range [0,%d)", base+j, x&(1<<w-1), maxLane)
			}
			x >>= w
		}
	}
	return nil
}

// unpack decodes lanes [lo, lo+len(dst)) into dst. It is the one reader
// of packed words, for atom classification and projection builds, shared by
// bit-packed dictionary codes and frame-of-reference lanes.
func (p *PackedInts) unpack(lo int, dst []uint32) {
	w := uint(p.Width)
	lpw := 64 / int(w)
	mask := uint64(1)<<w - 1
	wi, skip := lo/lpw, lo%lpw
	for i := 0; i < len(dst); wi++ {
		x := p.Words[wi] >> (uint(skip) * w)
		end := min(i+lpw-skip, len(dst))
		skip = 0
		for ; i < end; i++ {
			dst[i] = uint32(x & mask)
			x >>= w
		}
	}
}

// laneGE returns the first lane whose reconstructed value is >= c, or
// 1<<Width when no lane's is (always, for a NaN c). The reconstruction
// is monotone in the lane, so a binary search over the
// exact float predicate finds the threshold with no rounding argument:
// whatever c is — fractional, infinite, out of range — lane l satisfies
// "v >= c" iff l >= laneGE(c).
func (p *PackedFloats) laneGE(c float64) uint64 {
	return uint64(sort.Search(1<<uint(p.Ints.Width), func(l int) bool { return p.value(uint64(l)) >= c }))
}

// laneGT is laneGE for the strict predicate "v > c".
func (p *PackedFloats) laneGT(c float64) uint64 {
	return uint64(sort.Search(1<<uint(p.Ints.Width), func(l int) bool { return p.value(uint64(l)) > c }))
}

func errPackedf(format string, args ...any) error {
	return fmt.Errorf("dataset: packed column: "+format, args...)
}
