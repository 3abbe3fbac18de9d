package query

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/dataset"
)

func req() accuracy.Requirement { return accuracy.Requirement{Alpha: 10, Beta: 0.05} }

func somePreds() []dataset.Predicate {
	return []dataset.Predicate{
		dataset.NumCmp{Attr: "age", Op: dataset.Gt, C: 50},
		dataset.NumCmp{Attr: "age", Op: dataset.Le, C: 50},
	}
}

func TestConstructors(t *testing.T) {
	w, err := NewWCQ(somePreds(), req())
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind != WCQ || w.L() != 2 {
		t.Fatalf("bad WCQ %+v", w)
	}
	i, err := NewICQ(somePreds(), 100, req())
	if err != nil {
		t.Fatal(err)
	}
	if i.Kind != ICQ || i.Threshold != 100 {
		t.Fatalf("bad ICQ %+v", i)
	}
	k, err := NewTCQ(somePreds(), 1, req())
	if err != nil {
		t.Fatal(err)
	}
	if k.Kind != TCQ || k.K != 1 {
		t.Fatalf("bad TCQ %+v", k)
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewWCQ(nil, req()); err == nil {
		t.Fatal("empty workload must error")
	}
	if _, err := NewWCQ(somePreds(), accuracy.Requirement{Alpha: -1, Beta: 0.1}); err == nil {
		t.Fatal("bad requirement must error")
	}
	if _, err := NewICQ(somePreds(), -5, req()); err == nil {
		t.Fatal("negative threshold must error")
	}
	if _, err := NewTCQ(somePreds(), 0, req()); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, err := NewTCQ(somePreds(), 3, req()); err == nil {
		t.Fatal("k>L must error")
	}
}

func TestKindString(t *testing.T) {
	if WCQ.String() != "WCQ" || ICQ.String() != "ICQ" || TCQ.String() != "TCQ" {
		t.Fatal("kind strings")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Fatal("unknown kind should render its number")
	}
}

func TestParseWCQ(t *testing.T) {
	q, err := Parse(`BIN D ON COUNT(*) WHERE W = { age > 50 AND state = 'AL', age <= 50 } ERROR 32 CONFIDENCE 0.9995;`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Kind != WCQ {
		t.Fatalf("kind %v", q.Kind)
	}
	if q.L() != 2 {
		t.Fatalf("L = %d", q.L())
	}
	if q.Req.Alpha != 32 {
		t.Fatalf("alpha = %v", q.Req.Alpha)
	}
	if beta := q.Req.Beta; beta < 0.00049 || beta > 0.00051 {
		t.Fatalf("beta = %v", beta)
	}
	and, ok := q.Predicates[0].(dataset.And)
	if !ok || len(and) != 2 {
		t.Fatalf("first predicate = %#v", q.Predicates[0])
	}
}

func TestParseICQ(t *testing.T) {
	q, err := Parse(`BIN D ON COUNT(*) WHERE W = { state = 'AL', state = 'WY' } HAVING COUNT(*) > 5000000 ERROR 1000 CONFIDENCE 0.95;`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Kind != ICQ || q.Threshold != 5000000 {
		t.Fatalf("got %+v", q)
	}
}

func TestParseTCQ(t *testing.T) {
	q, err := Parse(`BIN D ON COUNT(*) WHERE W = { age = 1, age = 2, age = 3 } ORDER BY COUNT(*) LIMIT 2 ERROR 10 CONFIDENCE 0.9;`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Kind != TCQ || q.K != 2 {
		t.Fatalf("got %+v", q)
	}
}

func TestParseQuotedAttrAndBetween(t *testing.T) {
	q, err := Parse(`BIN D ON COUNT(*) WHERE W = { "capital gain" BETWEEN 0 AND 50, "capital gain" BETWEEN 50 AND 100 } ERROR 10 CONFIDENCE 0.99;`)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := q.Predicates[0].(dataset.Range)
	if !ok || r.Attr != "capital gain" || r.Lo != 0 || r.Hi != 50 {
		t.Fatalf("predicate = %#v", q.Predicates[0])
	}
}

func TestParseIsNullAndNot(t *testing.T) {
	q, err := Parse(`BIN D ON COUNT(*) WHERE W = { title IS NULL OR authors IS NULL, venue IS NOT NULL, NOT (year > 2000) } ERROR 5 CONFIDENCE 0.9;`)
	if err != nil {
		t.Fatal(err)
	}
	if q.L() != 3 {
		t.Fatalf("L = %d", q.L())
	}
	if _, ok := q.Predicates[0].(dataset.Or); !ok {
		t.Fatalf("first = %#v", q.Predicates[0])
	}
	if _, ok := q.Predicates[1].(dataset.Not); !ok {
		t.Fatalf("second = %#v", q.Predicates[1])
	}
}

func TestParsePrecedence(t *testing.T) {
	// AND binds tighter than OR: a OR b AND c == a OR (b AND c).
	q, err := Parse(`BIN D ON COUNT(*) WHERE W = { age > 1 OR age > 2 AND age > 3 } ERROR 1 CONFIDENCE 0.9;`)
	if err != nil {
		t.Fatal(err)
	}
	or, ok := q.Predicates[0].(dataset.Or)
	if !ok || len(or) != 2 {
		t.Fatalf("top = %#v", q.Predicates[0])
	}
	if _, ok := or[1].(dataset.And); !ok {
		t.Fatalf("right arm = %#v", or[1])
	}
}

func TestParseStringInequality(t *testing.T) {
	q, err := Parse(`BIN D ON COUNT(*) WHERE W = { sex != 'M' } ERROR 1 CONFIDENCE 0.9;`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.Predicates[0].(dataset.Not); !ok {
		t.Fatalf("got %#v", q.Predicates[0])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT * FROM D;`,
		`BIN D ON COUNT(*) WHERE W = { } ERROR 1 CONFIDENCE 0.9;`,
		`BIN D ON COUNT(*) WHERE W = { age > } ERROR 1 CONFIDENCE 0.9;`,
		`BIN D ON COUNT(*) WHERE W = { age > 5 } ERROR 1;`,
		`BIN D ON COUNT(*) WHERE W = { age > 5 } ERROR 1 CONFIDENCE 0.9 extra;`,
		`BIN D ON COUNT(*) WHERE W = { age > 5 } ORDER BY COUNT(*) LIMIT 1.5 ERROR 1 CONFIDENCE 0.9;`,
		`BIN D ON COUNT(*) WHERE W = { age > 5 } HAVING COUNT(*) > ERROR 1 CONFIDENCE 0.9;`,
		`BIN D ON COUNT(*) WHERE W = { sex < 'M' } ERROR 1 CONFIDENCE 0.9;`,
		`BIN D ON COUNT(*) WHERE W = { "unterminated } ERROR 1 CONFIDENCE 0.9;`,
		`BIN D ON COUNT(*) WHERE W = { age > 5 } ERROR 1 CONFIDENCE 0.9 ; ;`,
		`BIN D ON COUNT(*) WHERE W = { (age > 5 } ERROR 1 CONFIDENCE 0.9;`,
	}
	for i, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d: expected parse error for %q", i, src)
		}
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	q, err := NewICQ(somePreds(), 100, req())
	if err != nil {
		t.Fatal(err)
	}
	s := q.String()
	for _, want := range []string{"BIN D ON COUNT(*)", "HAVING COUNT(*) > 100", "ERROR 10", "CONFIDENCE 0.95"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestParsedQueryEvaluates(t *testing.T) {
	s := dataset.MustSchema(
		dataset.Attribute{Name: "age", Kind: dataset.Continuous, Min: 0, Max: 100},
		dataset.Attribute{Name: "state", Kind: dataset.Categorical, Values: []string{"AL", "WY"}},
	)
	q, err := Parse(`BIN D ON COUNT(*) WHERE W = { age > 50 AND state = 'AL' } ERROR 1 CONFIDENCE 0.9;`)
	if err != nil {
		t.Fatal(err)
	}
	row := dataset.Tuple{dataset.Num(60), dataset.Str("AL")}
	if !q.Predicates[0].Eval(s, row) {
		t.Fatal("predicate should match row")
	}
	row2 := dataset.Tuple{dataset.Num(40), dataset.Str("AL")}
	if q.Predicates[0].Eval(s, row2) {
		t.Fatal("predicate should not match row2")
	}
}

// TestParseDepthBound: NOT and parentheses nest MaxPredicateDepth levels
// and no further, mixed or not, and a hostile megabyte of openers is one
// ErrTooDeep instead of a megabyte-deep stack.
func TestParseDepthBound(t *testing.T) {
	nest := func(open, close string, n int) string {
		return `BIN D ON COUNT(*) WHERE W = { ` + strings.Repeat(open, n) + `age > 5` + strings.Repeat(close, n) + ` } ERROR 1 CONFIDENCE 0.9;`
	}
	for _, c := range []struct{ open, close string }{{"(", ")"}, {"NOT ", ""}, {"NOT (", ")"}} {
		per := strings.Count(c.open, "NOT") + strings.Count(c.open, "(")
		if _, err := Parse(nest(c.open, c.close, MaxPredicateDepth/per)); err != nil {
			t.Errorf("%q × %d: %v", c.open, MaxPredicateDepth/per, err)
		}
		if _, err := Parse(nest(c.open, c.close, MaxPredicateDepth/per+1)); !errors.Is(err, ErrTooDeep) {
			t.Errorf("%q × %d: err = %v, want ErrTooDeep", c.open, MaxPredicateDepth/per+1, err)
		}
	}
	if _, err := Parse(nest("(", "", 1<<19)); !errors.Is(err, ErrTooDeep) {
		t.Errorf("half a megabyte of '(': err = %v, want ErrTooDeep", err)
	}
	// The bound is per factor, not per query: siblings do not add up.
	wide := `BIN D ON COUNT(*) WHERE W = { ` + strings.Repeat(`(NOT (age > 5)) AND `, 200) + `age > 1 } ERROR 1 CONFIDENCE 0.9;`
	if _, err := Parse(wide); err != nil {
		t.Errorf("200 shallow siblings: %v", err)
	}
}

// FuzzParseLine: the parser never panics, whatever the line, and text it
// accepts is accepted again with the same rendering — parsing keeps no
// state and String walks whatever tree Parse can build.
func FuzzParseLine(f *testing.F) {
	for _, seed := range []string{
		``, `# comment`,
		`BIN D ON COUNT(*) WHERE W = { age BETWEEN 0 AND 50, age BETWEEN 50 AND 100 } ERROR 50 CONFIDENCE 0.95;`,
		`BIN D ON COUNT(*) WHERE W = { NOT (sex = 'M' OR "cap gain" >= -1.5e3) AND age IS NOT NULL } HAVING COUNT(*) > 10 ERROR 1 CONFIDENCE 0.9;`,
		`BIN D ON COUNT(*) WHERE W = { a != 'x', b <= 2, c < 3 } ORDER BY COUNT(*) LIMIT 2 ERROR 5 CONFIDENCE 0.99;`,
		`BIN D ON COUNT(*) WHERE W = { ((((NOT NOT (a > 1))))) } ERROR 1 CONFIDENCE 0.5`,
		`BIN D ON COUNT(*) WHERE W = { (age > 5 } ERROR 1 CONFIDENCE 0.9;`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		q, err := ParseLine(line)
		if err != nil || q == nil {
			return
		}
		again, err := ParseLine(line)
		if err != nil || again == nil {
			t.Fatalf("accepted once, then: %v", err)
		}
		if q.String() != again.String() {
			t.Fatalf("re-parse renders differently:\n%s\n%s", q.String(), again.String())
		}
	})
}
