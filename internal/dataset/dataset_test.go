package dataset

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Attribute{Name: "age", Kind: Continuous, Min: 0, Max: 100},
		Attribute{Name: "state", Kind: Categorical, Values: []string{"AL", "AK", "WY"}},
		Attribute{Name: "gain", Kind: Continuous, Min: 0, Max: 5000},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema(Attribute{Name: ""}); err == nil {
		t.Fatal("empty name must error")
	}
	if _, err := NewSchema(
		Attribute{Name: "a", Kind: Categorical, Values: []string{"x"}},
		Attribute{Name: "a", Kind: Categorical, Values: []string{"x"}},
	); err == nil {
		t.Fatal("duplicate name must error")
	}
	if _, err := NewSchema(Attribute{Name: "a", Kind: Continuous, Min: 5, Max: 1}); err == nil {
		t.Fatal("Min>Max must error")
	}
	if _, err := NewSchema(Attribute{Name: "a", Kind: Categorical}); err == nil {
		t.Fatal("empty categorical domain must error")
	}
}

func TestSchemaLookup(t *testing.T) {
	s := testSchema(t)
	if s.Arity() != 3 {
		t.Fatalf("arity %d", s.Arity())
	}
	i, ok := s.Lookup("state")
	if !ok || i != 1 {
		t.Fatalf("Lookup(state) = %d, %v", i, ok)
	}
	if _, ok := s.Lookup("nope"); ok {
		t.Fatal("unknown attribute should not resolve")
	}
	a, ok := s.AttrByName("age")
	if !ok || a.Kind != Continuous {
		t.Fatalf("AttrByName(age) = %+v, %v", a, ok)
	}
	names := s.Names()
	if len(names) != 3 || names[0] != "age" || names[2] != "gain" {
		t.Fatalf("Names = %v", names)
	}
}

func TestValueAccessors(t *testing.T) {
	if !Null.IsNull() {
		t.Fatal("Null must be null")
	}
	if _, ok := Null.AsNum(); ok {
		t.Fatal("Null has no number")
	}
	v := Num(3.5)
	if f, ok := v.AsNum(); !ok || f != 3.5 {
		t.Fatalf("AsNum = %v, %v", f, ok)
	}
	if _, ok := v.AsStr(); ok {
		t.Fatal("numeric value has no string")
	}
	s := Str("x")
	if g, ok := s.AsStr(); !ok || g != "x" {
		t.Fatalf("AsStr = %v, %v", g, ok)
	}
	if Null.String() != "NULL" || s.String() != "x" || v.String() != "3.5" {
		t.Fatalf("String renderings: %q %q %q", Null, s, v)
	}
}

func TestTableAppendAndCount(t *testing.T) {
	s := testSchema(t)
	tab := NewTable(s)
	if err := tab.Append(Tuple{Num(30)}); err == nil {
		t.Fatal("wrong arity must error")
	}
	tab.MustAppend(Tuple{Num(30), Str("AL"), Num(100)})
	tab.MustAppend(Tuple{Num(60), Str("AK"), Num(0)})
	tab.MustAppend(Tuple{Num(70), Str("AL"), Null})
	if tab.Size() != 3 {
		t.Fatalf("size %d", tab.Size())
	}
	if got := tab.Count(NumCmp{Attr: "age", Op: Gt, C: 50}); got != 2 {
		t.Fatalf("Count(age>50) = %d", got)
	}
	if got := tab.Count(And{NumCmp{Attr: "age", Op: Gt, C: 50}, StrEq{Attr: "state", Val: "AL"}}); got != 1 {
		t.Fatalf("Count(age>50 AND AL) = %d", got)
	}
	if got := tab.Count(IsNull{Attr: "gain"}); got != 1 {
		t.Fatalf("Count(gain IS NULL) = %d", got)
	}
}

func TestPredicateEvalMatrix(t *testing.T) {
	s := testSchema(t)
	row := Tuple{Num(42), Str("AK"), Num(500)}
	cases := []struct {
		p    Predicate
		want bool
	}{
		{NumCmp{"age", Eq, 42}, true},
		{NumCmp{"age", Ne, 42}, false},
		{NumCmp{"age", Lt, 42}, false},
		{NumCmp{"age", Le, 42}, true},
		{NumCmp{"age", Gt, 41}, true},
		{NumCmp{"age", Ge, 43}, false},
		{NumCmp{"nonexistent", Eq, 1}, false},
		{NumCmp{"state", Eq, 1}, false}, // type mismatch
		{StrEq{"state", "AK"}, true},
		{StrEq{"state", "AL"}, false},
		{StrEq{"age", "AK"}, false}, // type mismatch
		{Range{"gain", 0, 501}, true},
		{Range{"gain", 0, 500}, false}, // half-open
		{IsNull{"gain"}, false},
		{Not{StrEq{"state", "AK"}}, false},
		{Or{StrEq{"state", "AL"}, NumCmp{"age", Gt, 40}}, true},
		{And{}, true}, // empty conjunction is true
		{Or{}, false}, // empty disjunction is false
		{True{}, true},
	}
	for _, c := range cases {
		if got := c.p.Eval(s, row); got != c.want {
			t.Errorf("%s = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPredicateAttrs(t *testing.T) {
	p := And{
		NumCmp{Attr: "age", Op: Gt, C: 50},
		Or{StrEq{Attr: "state", Val: "AL"}, Range{Attr: "age", Lo: 0, Hi: 10}},
	}
	got := p.Attrs()
	if len(got) != 2 || got[0] != "age" || got[1] != "state" {
		t.Fatalf("Attrs = %v", got)
	}
	f := Func{Name: "f", ReadAttrs: []string{"z", "a"}, Fn: func(*Schema, Tuple) bool { return true }}
	fa := f.Attrs()
	if len(fa) != 2 || fa[0] != "a" {
		t.Fatalf("Func.Attrs = %v", fa)
	}
}

func TestPredicateStrings(t *testing.T) {
	cases := []struct {
		p    Predicate
		want string
	}{
		{NumCmp{"age", Ge, 5}, "age>=5"},
		{StrEq{"state", "AL"}, `state="AL"`},
		{Range{"g", 1, 2}, "g∈[1,2)"},
		{IsNull{"x"}, "x IS NULL"},
		{Not{True{}}, "NOT (TRUE)"},
		{And{True{}, True{}}, "(TRUE) AND (TRUE)"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

// TestAppendAfterReadRefused: every read of the columns seals the table,
// once; a later Append is refused and leaves the table as it was.
func TestAppendAfterReadRefused(t *testing.T) {
	s := testSchema(t)
	reads := map[string]func(*Table){
		"Row":             func(tab *Table) { tab.Row(0) },
		"Floats":          func(tab *Table) { tab.Floats(0) },
		"ColumnData":      func(tab *Table) { tab.ColumnData(1) },
		"ColumnScanBytes": func(tab *Table) { tab.ColumnScanBytes(2) },
		"MisfitRows":      func(tab *Table) { tab.MisfitRows() },
		"Bind":            func(tab *Table) { CatAtoms(1, []string{"AL"}).Bind(tab) },
		"Projection":      func(tab *Table) { tab.Projection([]int{1}) },
		"Count":           func(tab *Table) { tab.Count(IsNull{Attr: "age"}) },
	}
	for name, read := range reads {
		tab := NewTable(s)
		tab.MustAppend(Tuple{Num(1), Str("AL"), Num(2)})
		read(tab)
		if err := tab.Append(Tuple{Num(3), Str("WY"), Num(4)}); err == nil {
			t.Fatalf("%s: Append after the read was accepted", name)
		}
		if tab.Size() != 1 || tab.Row(0)[1] != Str("AL") {
			t.Fatalf("%s: the refused Append changed the table: %d rows, %v", name, tab.Size(), tab.Row(0))
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := testSchema(t)
	tab := NewTable(s)
	tab.MustAppend(Tuple{Num(30), Str("AL"), Num(100.5)})
	tab.MustAppend(Tuple{Num(60), Null, Num(0)})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tab); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, s)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != 2 {
		t.Fatalf("round-trip size %d", back.Size())
	}
	if !back.Row(1)[1].IsNull() {
		t.Fatal("NULL must survive round trip")
	}
	if v, _ := back.Row(0)[2].AsNum(); v != 100.5 {
		t.Fatalf("gain = %v", v)
	}
}

func TestReadCSVErrors(t *testing.T) {
	s := testSchema(t)
	if _, err := ReadCSV(strings.NewReader("bogus\n1\n"), s); err == nil {
		t.Fatal("unknown column must error")
	}
	if _, err := ReadCSV(strings.NewReader("age\nnot-a-number\n"), s); err == nil {
		t.Fatal("bad float must error")
	}
}

// Property: De Morgan — NOT(a AND b) == (NOT a) OR (NOT b) on random rows.
func TestQuickDeMorgan(t *testing.T) {
	s := testSchema(t)
	f := func(age, gain float64, stateIdx uint8) bool {
		states := []string{"AL", "AK", "WY"}
		row := Tuple{Num(age), Str(states[int(stateIdx)%3]), Num(gain)}
		a := NumCmp{Attr: "age", Op: Gt, C: 50}
		b := StrEq{Attr: "state", Val: "AL"}
		lhs := Not{And{a, b}}.Eval(s, row)
		rhs := Or{Not{a}, Not{b}}.Eval(s, row)
		return lhs == rhs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: a Range predicate equals the conjunction of its two comparisons.
func TestQuickRangeDecomposition(t *testing.T) {
	s := testSchema(t)
	f := func(v, lo, hi float64) bool {
		row := Tuple{Num(0), Str("AL"), Num(v)}
		r := Range{Attr: "gain", Lo: lo, Hi: hi}
		c := And{NumCmp{Attr: "gain", Op: Ge, C: lo}, NumCmp{Attr: "gain", Op: Lt, C: hi}}
		return r.Eval(s, row) == c.Eval(s, row)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
