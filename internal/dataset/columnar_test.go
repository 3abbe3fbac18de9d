package dataset

import (
	"fmt"
	"math/rand"
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
}

// TestMisfitStringsReadBack: a string in a continuous column and an
// out-of-domain string in a categorical one read back as appended once
// the table is sealed.
func TestMisfitStringsReadBack(t *testing.T) {
	s := testSchema(t)
	tab := NewTable(s)
	tab.MustAppend(Tuple{Str("stray"), Str("AL"), Num(1)}) // Str in continuous "age"
	tab.MustAppend(Tuple{Num(4), Str("zz-extra"), Num(1)}) // out-of-domain state
	if got := tab.Row(0)[0]; got != Str("stray") {
		t.Fatalf("row 0 age = %v, want the misfit string", got)
	}
	if got := tab.Row(1)[1]; got != Str("zz-extra") {
		t.Fatalf("row 1 state = %v", got)
	}
	if rows := tab.MisfitRows(); len(rows) != 1 || rows[0] != 0 {
		t.Fatalf("misfit rows %v, want [0]", rows)
	}
}
