package dataset

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// fmtPredicate is the text form as it was written with fmt before
// AppendPredicate: the definition the append writer must reproduce.
func fmtPredicate(p Predicate) string {
	join := func(ps []Predicate, sep string) string {
		parts := make([]string, len(ps))
		for i, c := range ps {
			parts[i] = "(" + fmtPredicate(c) + ")"
		}
		return strings.Join(parts, sep)
	}
	switch v := p.(type) {
	case NumCmp:
		return fmt.Sprintf("%s%s%g", v.Attr, v.Op, v.C)
	case StrEq:
		return fmt.Sprintf("%s=%q", v.Attr, v.Val)
	case Range:
		return fmt.Sprintf("%s∈[%g,%g)", v.Attr, v.Lo, v.Hi)
	case IsNull:
		return fmt.Sprintf("%s IS NULL", v.Attr)
	case And:
		return join(v, " AND ")
	case Or:
		return join(v, " OR ")
	case Not:
		return "NOT (" + fmtPredicate(v.P) + ")"
	default:
		return p.String()
	}
}

// customPred is a Predicate from outside this package: it renders itself.
type customPred struct{ True }

func (customPred) String() string { return "custom%g" }

func TestAppendPredicateMatchesFmt(t *testing.T) {
	edge := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-7, 1e-6, 1e20, 1e21, 123456789,
		5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	strs := []string{"", "CA", `quote"and,comma\`, "a\xffb", "x\xe2\x80\xa8y", "\x00\t\n\x7f", "<>&", "∈ é 日本"}
	var preds []Predicate
	for i, c := range edge {
		s := strs[i%len(strs)]
		preds = append(preds,
			NumCmp{Attr: s, Op: CmpOp(i % 7), C: c},
			Range{Attr: s, Lo: c, Hi: edge[(i+1)%len(edge)]},
		)
	}
	for _, s := range strs {
		preds = append(preds, StrEq{Attr: s, Val: s}, IsNull{Attr: s})
	}
	preds = append(preds,
		True{}, Func{Name: "f%d"}, customPred{},
		And{}, Or{}, Not{P: True{}},
		And{Range{Attr: "age", Lo: 0, Hi: 50}, StrEq{Attr: "state", Val: "CA"}},
		Or{NumCmp{Attr: "age", Op: Lt, C: 10}, Not{P: IsNull{Attr: "age"}}, customPred{}},
		And{Or{True{}, IsNull{Attr: "x"}}, Not{P: And{True{}, Range{Attr: "y", Lo: -0.5, Hi: 2e30}}}, Func{Name: "g"}},
	)
	for _, p := range preds {
		want := fmtPredicate(p)
		if got := p.String(); got != want {
			t.Errorf("%T String() = %q, fmt form %q", p, got, want)
		}
		if got := string(AppendPredicate([]byte("prefix:"), p)); got != "prefix:"+want {
			t.Errorf("%T AppendPredicate = %q, want %q", p, got, "prefix:"+want)
		}
	}
}

// TestAppendPredicateRandomFloats checks the constants' form on generated
// bit patterns, every float64 class included, not only the cases above.
func TestAppendPredicateRandomFloats(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 20000; i++ {
		lo, hi := math.Float64frombits(r.Uint64()), r.NormFloat64()*math.Pow(10, float64(r.IntN(40)-20))
		for _, p := range []Predicate{Range{Attr: "a", Lo: lo, Hi: hi}, NumCmp{Attr: "b", Op: Ge, C: hi}} {
			if got, want := p.String(), fmtPredicate(p); got != want {
				t.Fatalf("%q, fmt form %q", got, want)
			}
		}
	}
}

// TestRangeStringAllocs pins a leaf predicate's rendering at one
// allocation, the returned string: no fmt, no boxed arguments.
func TestRangeStringAllocs(t *testing.T) {
	p := Range{Attr: "capital gain", Lo: 1234.5, Hi: 0.30000000000000004}
	if allocs := testing.AllocsPerRun(100, func() { _ = p.String() }); allocs > 1 {
		t.Errorf("Range.String: %v allocations, want ≤ 1", allocs)
	}
}

// TestValueStringMatchesFmt: a number renders exactly as %g did — the
// form WriteCSV writes each continuous cell in, so a generated CSV keeps
// every byte — on the float64 classes, the 'e' switch at 1e21 and 1e-5,
// random bit patterns and random short decimals.
func TestValueStringMatchesFmt(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 0.30000000000000004, 1e-5, 1e-4, 1e20, 1e21,
		999999999999999999999, 123456789, 5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()}
	r := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 200_000; i++ {
		floats = append(floats, math.Float64frombits(r.Uint64()),
			float64(r.IntN(2_000_000)-1_000_000)/math.Pow(10, float64(r.IntN(7))))
	}
	for _, f := range floats {
		if got, want := Num(f).String(), fmt.Sprintf("%g", f); got != want {
			t.Fatalf("Num(%v).String() = %q, %%g gives %q", math.Float64bits(f), got, want)
		}
	}
}

// TestWriteCSVMatchesFmt: WriteCSV's bytes are the rows' cells formatted
// with %g (categories as they are, NULL as an empty cell).
func TestWriteCSVMatchesFmt(t *testing.T) {
	s := MustSchema(Attribute{Name: "x", Kind: Continuous, Min: -1e6, Max: 1e6},
		Attribute{Name: "c", Kind: Categorical, Values: []string{"a", "b"}})
	tab := NewTable(s)
	r := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 5000; i++ {
		x := Num(float64(r.IntN(2_000_000)-1_000_000) / math.Pow(10, float64(r.IntN(7))))
		if i%97 == 0 {
			x = Null
		}
		tab.MustAppend(Tuple{x, Str([]string{"a", "b"}[i%2])})
	}
	var want strings.Builder
	want.WriteString("x,c\n")
	for i := 0; i < tab.Size(); i++ {
		row := tab.Row(i)
		if f, ok := row[0].AsNum(); ok {
			fmt.Fprintf(&want, "%g", f)
		}
		c, _ := row[1].AsStr()
		want.WriteString("," + c + "\n")
	}
	var got strings.Builder
	if err := WriteCSV(&got, tab); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("WriteCSV differs from the %%g form:\n got %.200q\nwant %.200q", got.String(), want.String())
	}
}
