package dataset

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// randTable builds a random table over testSchema-like attributes with
// NULLs, out-of-domain categorical strings and (optionally) cells whose
// Value kind mismatches the attribute kind — everything the columnar
// store must represent exactly.
func randColumnarTable(rng *rand.Rand, s *Schema, n int, misfits bool) *Table {
	t := NewTable(s)
	row := make(Tuple, s.Arity())
	for i := 0; i < n; i++ {
		for pos := 0; pos < s.Arity(); pos++ {
			a := s.Attr(pos)
			switch r := rng.Float64(); {
			case r < 0.10:
				row[pos] = Null
			case misfits && r < 0.15:
				// Kind-mismatched cell: Num in a categorical column or
				// Str in a continuous one.
				if a.Kind == Categorical {
					row[pos] = Num(rng.Float64() * 10)
				} else {
					row[pos] = Str(fmt.Sprintf("junk%d", rng.Intn(3)))
				}
			case a.Kind == Categorical:
				if rng.Float64() < 0.2 {
					// Out-of-domain string (legal in CSV imports).
					row[pos] = Str(fmt.Sprintf("extra%d", rng.Intn(4)))
				} else {
					row[pos] = Str(a.Values[rng.Intn(len(a.Values))])
				}
			default:
				row[pos] = Num(a.Min + rng.Float64()*(a.Max-a.Min)*1.2 - (a.Max-a.Min)*0.1)
			}
		}
		t.MustAppend(row)
	}
	return t
}

// TestRowIsACopy pins the compatibility contract of the columnar Table:
// Row materializes a fresh tuple, so callers cannot mutate the table
// through it.
func TestRowIsACopy(t *testing.T) {
	s := testSchema(t)
	tab := NewTable(s)
	tab.MustAppend(Tuple{Num(30), Str("AL"), Num(100)})
	row := tab.Row(0)
	row[0] = Num(99)
	if v, _ := tab.Row(0)[0].AsNum(); v != 30 {
		t.Fatalf("table mutated through Row view: %v", v)
	}
}

// TestAppendReusesCallerTuple pins the new Append contract: cells are
// copied out, so one buffer can feed many rows (the CSV import path).
func TestAppendReusesCallerTuple(t *testing.T) {
	s := testSchema(t)
	tab := NewTable(s)
	row := Tuple{Num(1), Str("AL"), Num(2)}
	tab.MustAppend(row)
	row[0] = Num(7)
	row[1] = Str("WY")
	tab.MustAppend(row)
	if v, _ := tab.Row(0)[0].AsNum(); v != 1 {
		t.Fatalf("row 0 aliased the caller buffer: %v", v)
	}
	if v, _ := tab.Row(1)[1].AsStr(); v != "WY" {
		t.Fatalf("row 1 = %v", tab.Row(1))
	}
}

func TestSamplePreservesColumnsAndMisfits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := testSchema(t)
	tab := randColumnarTable(rng, s, 100, true)
	sm := tab.Sample(40)
	if sm.Size() != 40 {
		t.Fatalf("sample size %d", sm.Size())
	}
	for i := 0; i < sm.Size(); i++ {
		a, b := tab.Row(i), sm.Row(i)
		for pos := range a {
			if a[pos] != b[pos] {
				t.Fatalf("row %d pos %d: %v vs %v", i, pos, a[pos], b[pos])
			}
		}
	}
	// The sample is independent storage: appending must not disturb the
	// parent — its rows, its dictionary or its missing bitmaps.
	before := tab.Row(40)
	sm.MustAppend(Tuple{Num(1), Str("brand-new"), Null})
	if tab.Size() != 100 {
		t.Fatalf("parent grew to %d", tab.Size())
	}
	if got := sm.Row(40); got[1] != Str("brand-new") || !got[2].IsNull() {
		t.Fatalf("appended sample row reads back as %v", got)
	}
	if vals, _ := tab.DistinctValues("state"); slices.Contains(vals, "brand-new") {
		t.Fatalf("the sample's new string leaked into the parent's dictionary: %v", vals)
	}
	if after := tab.Row(40); !slices.Equal(after, before) {
		t.Fatalf("parent row 40 changed from %v to %v", before, after)
	}
}

func TestBitmapBasics(t *testing.T) {
	var b Bitmap
	b.Reset(70) // straddles a word boundary
	if b.Count() != 0 || b.Len() != 70 {
		t.Fatalf("fresh bitmap: count %d len %d", b.Count(), b.Len())
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(69)
	if b.Count() != 4 || !b.Get(63) || !b.Get(64) || b.Get(1) {
		t.Fatalf("after sets: count %d", b.Count())
	}
	if c := b.clonePrefix(64); c.Len() != 64 || c.Count() != 2 || !c.Get(63) {
		t.Fatalf("clonePrefix(64) must keep bits 0 and 63 and mask 64 and 69: len %d count %d", c.Len(), c.Count())
	}
	var g Bitmap
	for i := 0; i < 130; i++ {
		g.appendBit(i%3 == 0)
	}
	if g.Len() != 130 || g.Count() != 44 {
		t.Fatalf("appendBit: len %d count %d", g.Len(), g.Count())
	}
}

func TestDistinctValuesSeesMisfitStrings(t *testing.T) {
	s := testSchema(t)
	tab := NewTable(s)
	tab.MustAppend(Tuple{Str("stray"), Str("AL"), Num(1)}) // Str in continuous "age"
	tab.MustAppend(Tuple{Num(4), Str("zz-extra"), Num(1)}) // out-of-domain state
	vals, err := tab.DistinctValues("age")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || vals[0] != "stray" {
		t.Fatalf("DistinctValues(age) = %v", vals)
	}
	states, err := tab.DistinctValues("state")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(states, ",") != "AL,zz-extra" {
		t.Fatalf("DistinctValues(state) = %v", states)
	}
}
