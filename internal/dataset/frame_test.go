package dataset

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// floatFrame is the frame-of-reference fold as it was first written — one
// value at a time in float64, every value through scaledInt — kept as the
// reference the integer frames are checked against.
type floatFrame struct {
	raw    bool
	seen   bool
	exp    int
	lo, hi float64
}

func (f *floatFrame) add(v float64) {
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

func (f *floatFrame) packing() (PackedFloats, bool) {
	if f.raw {
		return PackedFloats{}, false
	}
	w := max(bits.Len64(uint64(f.hi-f.lo)), 1)
	return PackedFloats{Ints: PackedInts{Width: w}, Min: f.lo, Exp: f.exp}, true
}

// randomDecimal returns a cell a continuous column may hold: plain
// decimals of every length (the digit arm), trailing zeros, −0 in its
// spellings, exponents, 16–17 digit numbers and values around the frame's
// bounds (the strconv arm), and the odd value no frame holds. About six
// cells in odd are one of those.
func randomDecimal(rng *rand.Rand, scale, odd int) string {
	neg := ""
	if rng.Intn(4) == 0 {
		neg = "-"
	}
	switch rng.Intn(odd) {
	case 0:
		return []string{"-0", "-0.0", "0.000", "0", ".0", "-.000"}[rng.Intn(6)]
	case 1:
		return []string{"1e3", "2.5e-1", "1E2", "NaN", "Inf", "5.", "1e-7", "4.2e1"}[rng.Intn(8)]
	case 2:
		// Around 2^50 and 2^52, scaled and not.
		// An integer just past edge/10^k only fits at exponent 0.
		edge := []int64{1 << 50, 1 << 52}[rng.Intn(2)] + int64(rng.Intn(3)-1)
		s := strconv.FormatInt(edge, 10)
		switch k := rng.Intn(3); {
		case k == 0:
			return neg + s
		case rng.Intn(2) == 0:
			return neg + strconv.FormatInt(edge/int64(math.Pow10(k))+int64(rng.Intn(2)), 10)
		default:
			return neg + s[:len(s)-k] + "." + s[len(s)-k:]
		}
	case 3:
		// 15 and 16 digits.
		d := 15 + rng.Intn(2)
		s := strconv.FormatInt(rng.Int63n(9e15)+1e15, 10)[:d]
		if k := rng.Intn(4); k > 0 {
			s = s[:d-k] + "." + s[d-k:]
		}
		return neg + s
	case 4:
		// More fraction digits than MaxDecimalExp, sometimes all zeros past it.
		s := fmt.Sprintf("%d.%06d", rng.Intn(1000), rng.Intn(1e6))
		if rng.Intn(2) == 0 {
			return neg + s + "0"
		}
		return neg + s + strconv.Itoa(1+rng.Intn(9))
	case 5:
		// A spread wide enough to leave 32 bits.
		return neg + strconv.FormatInt(rng.Int63n(1<<40), 10)
	}
	whole := strconv.Itoa(rng.Intn(1000))
	k := rng.Intn(scale + 1)
	if k == 0 {
		return neg + whole
	}
	frac := fmt.Sprintf("%0*d", k, rng.Intn(int(math.Pow10(k))))
	if rng.Intn(3) == 0 {
		frac += strings.Repeat("0", 1+rng.Intn(3)) // 12.50
	}
	if rng.Intn(8) == 0 {
		whole = ""
	}
	return neg + whole + "." + frac
}

// TestBlockFrameMatchesFoRFrame checks the merge against the sequential
// fold: random decimal streams, cut at random block boundaries, parsed
// into block columns (frames folded from the digits where the parser
// reads them) and merged in order, give the frame FoRFrame.Add reaches
// over the same floats one at a time, and that the float64 reference
// fold reaches — Packing compared field for field. Every block gives back
// strconv's float64s, and its Scaled holds each at the block's exponent.
func TestBlockFrameMatchesFoRFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var outcomes [MaxDecimalExp + 2]int // packed at each exponent, then raw
	for iter := 0; iter < 3000; iter++ {
		n := 1 + rng.Intn(60)
		cells := make([]string, n)
		for i := range cells {
			// Mostly one column's kind of value, so frames often survive.
			cells[i] = randomDecimal(rng, iter%7, []int{24, 200, 2000}[iter%3])
			if iter%4 == 0 && rng.Intn(3) > 0 {
				cells[i] = strconv.Itoa(rng.Intn(500))
			}
			if rng.Intn(10) == 0 {
				cells[i] = ""
			}
		}
		var merged FoRFrame
		var seq FoRFrame
		var ref floatFrame
		for lo := 0; lo < n; {
			hi := min(n, lo+1+rng.Intn(8))
			blk := BlockColumn{Missing: make([]uint64, 1)}
			for i, s := range cells[lo:hi] {
				if s == "" {
					blk.AppendMissing(i)
				} else if err := blk.appendNumber(s); err != nil {
					t.Fatalf("%q: %v", s, err)
				}
			}
			vals := blk.AppendFloats(nil)
			for i, s := range cells[lo:hi] {
				want := 0.0
				if s != "" {
					want, _ = strconv.ParseFloat(s, 64)
					seq.Add(want)
					ref.add(want)
				}
				if math.Float64bits(vals[i]) != math.Float64bits(want) {
					t.Fatalf("cells %q: row %d reads %v, want %v", cells[lo:hi], i, vals[i], want)
				}
			}
			checkScaled(t, &blk, vals, cells[lo:hi])
			merged.Merge(&blk.Frame)
			lo = hi
		}
		want, wok := ref.packing()
		if wok {
			outcomes[want.Exp]++
		} else {
			outcomes[MaxDecimalExp+1]++
		}
		for name, f := range map[string]*FoRFrame{"merged": &merged, "sequential": &seq} {
			got, gok := f.Packing()
			if gok != wok || got.Exp != want.Exp || got.Ints.Width != want.Ints.Width ||
				math.Float64bits(got.Min) != math.Float64bits(want.Min) {
				t.Fatalf("cells %q: %s frame %+v (%v), float fold %+v (%v)", cells, name, got, gok, want, wok)
			}
		}
	}
	// The streams must exercise every outcome, or the comparison shows
	// little.
	for k, c := range outcomes {
		if c < 20 {
			t.Errorf("outcomes by exponent (raw last) %v: too few at %d", outcomes, k)
		}
	}
	t.Logf("outcomes by exponent (raw last): %v", outcomes)
}

// checkScaled checks a block column's Scaled against scaledInt of its
// values at the block frame's exponent.
func checkScaled(t *testing.T, c *BlockColumn, vals []float64, cells []string) {
	t.Helper()
	exp, ok := c.Frame.Exp()
	if !ok {
		return
	}
	if len(c.Scaled) != len(vals) {
		t.Fatalf("cells %q: %d scaled values for %d rows", cells, len(c.Scaled), len(vals))
	}
	for i, v := range vals {
		want := 0.0
		if !c.MissingAt(i) {
			var ok bool
			if want, ok = scaledInt(v, exp); !ok {
				t.Fatalf("cells %q: row %d (%v) does not round-trip at the block's exponent %d", cells, i, v, exp)
			}
		}
		if float64(c.Scaled[i]) != want {
			t.Fatalf("cells %q: row %d scaled %d at exponent %d, want %v", cells, i, c.Scaled[i], exp, want)
		}
	}
}
