package dataset

import (
	"fmt"
	"sort"
	"strconv"
)

// Predicate is a boolean condition over tuples: the ϕ in a workload
// W = {ϕ1, ..., ϕL}. Predicates must be pure functions of the tuple.
type Predicate interface {
	// Eval reports whether the tuple satisfies the predicate.
	Eval(s *Schema, t Tuple) bool
	// String renders the predicate; used for bin identifiers in ICQ/TCQ
	// answers and in transcripts.
	String() string
	// Attrs returns the names of the attributes the predicate reads,
	// sorted and deduplicated. The workload transformation uses this to
	// restrict domain partitioning to referenced attributes.
	Attrs() []string
}

// CmpOp is a comparison operator for atomic predicates.
type CmpOp int

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// String implements fmt.Stringer.
func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// NumCmp compares a continuous attribute with a constant. NULL never
// satisfies a comparison.
type NumCmp struct {
	Attr string
	Op   CmpOp
	C    float64
}

// Eval implements Predicate.
func (p NumCmp) Eval(s *Schema, t Tuple) bool {
	i, ok := s.Lookup(p.Attr)
	if !ok {
		return false
	}
	v, ok := t[i].AsNum()
	if !ok {
		return false
	}
	switch p.Op {
	case Eq:
		return v == p.C
	case Ne:
		return v != p.C
	case Lt:
		return v < p.C
	case Le:
		return v <= p.C
	case Gt:
		return v > p.C
	case Ge:
		return v >= p.C
	default:
		return false
	}
}

// String implements Predicate.
func (p NumCmp) String() string {
	var buf [48]byte
	return string(p.appendText(buf[:0]))
}

func (p NumCmp) appendText(dst []byte) []byte {
	dst = append(append(dst, p.Attr...), p.Op.String()...)
	return appendNum(dst, p.C)
}

// Attrs implements Predicate.
func (p NumCmp) Attrs() []string { return []string{p.Attr} }

// StrEq tests a categorical attribute for equality with a constant.
type StrEq struct {
	Attr string
	Val  string
}

// Eval implements Predicate.
func (p StrEq) Eval(s *Schema, t Tuple) bool {
	i, ok := s.Lookup(p.Attr)
	if !ok {
		return false
	}
	v, ok := t[i].AsStr()
	return ok && v == p.Val
}

// String implements Predicate.
func (p StrEq) String() string {
	var buf [48]byte
	return string(p.appendText(buf[:0]))
}

func (p StrEq) appendText(dst []byte) []byte {
	return strconv.AppendQuote(append(append(dst, p.Attr...), '='), p.Val)
}

// Attrs implements Predicate.
func (p StrEq) Attrs() []string { return []string{p.Attr} }

// Range tests Lo <= attr < Hi on a continuous attribute (half-open, the
// convention for the paper's histogram bins such as "capital gain" ∈ [0,50)).
type Range struct {
	Attr   string
	Lo, Hi float64
}

// Eval implements Predicate.
func (p Range) Eval(s *Schema, t Tuple) bool {
	i, ok := s.Lookup(p.Attr)
	if !ok {
		return false
	}
	v, ok := t[i].AsNum()
	return ok && v >= p.Lo && v < p.Hi
}

// String implements Predicate.
func (p Range) String() string {
	var buf [48]byte
	return string(p.appendText(buf[:0]))
}

func (p Range) appendText(dst []byte) []byte {
	dst = appendNum(append(append(dst, p.Attr...), "∈["...), p.Lo)
	return append(appendNum(append(dst, ','), p.Hi), ')')
}

// Attrs implements Predicate.
func (p Range) Attrs() []string { return []string{p.Attr} }

// IsNull tests whether an attribute is NULL.
type IsNull struct {
	Attr string
}

// Eval implements Predicate.
func (p IsNull) Eval(s *Schema, t Tuple) bool {
	i, ok := s.Lookup(p.Attr)
	if !ok {
		return false
	}
	return t[i].IsNull()
}

// String implements Predicate.
func (p IsNull) String() string { return p.Attr + " IS NULL" }

// Attrs implements Predicate.
func (p IsNull) Attrs() []string { return []string{p.Attr} }

// And is the conjunction of its children.
type And []Predicate

// Eval implements Predicate.
func (p And) Eval(s *Schema, t Tuple) bool {
	for _, c := range p {
		if !c.Eval(s, t) {
			return false
		}
	}
	return true
}

// String implements Predicate.
func (p And) String() string { return string(AppendPredicate(nil, p)) }

// Attrs implements Predicate.
func (p And) Attrs() []string { return unionAttrs(p) }

// Or is the disjunction of its children.
type Or []Predicate

// Eval implements Predicate.
func (p Or) Eval(s *Schema, t Tuple) bool {
	for _, c := range p {
		if c.Eval(s, t) {
			return true
		}
	}
	return false
}

// String implements Predicate.
func (p Or) String() string { return string(AppendPredicate(nil, p)) }

// Attrs implements Predicate.
func (p Or) Attrs() []string { return unionAttrs(p) }

// Not negates its child.
type Not struct {
	P Predicate
}

// Eval implements Predicate.
func (p Not) Eval(s *Schema, t Tuple) bool { return !p.P.Eval(s, t) }

// String implements Predicate.
func (p Not) String() string { return string(AppendPredicate(nil, p)) }

// Attrs implements Predicate.
func (p Not) Attrs() []string { return p.P.Attrs() }

// True matches every tuple (useful as the catch-all bin).
type True struct{}

// Eval implements Predicate.
func (True) Eval(*Schema, Tuple) bool { return true }

// String implements Predicate.
func (True) String() string { return "TRUE" }

// Attrs implements Predicate.
func (True) Attrs() []string { return nil }

// Func wraps an arbitrary evaluation function as a Predicate. Name is used
// for rendering; ReadAttrs lists the attributes the function reads.
type Func struct {
	Name      string
	ReadAttrs []string
	Fn        func(s *Schema, t Tuple) bool
}

// Eval implements Predicate.
func (p Func) Eval(s *Schema, t Tuple) bool { return p.Fn(s, t) }

// String implements Predicate.
func (p Func) String() string { return p.Name }

// Attrs implements Predicate.
func (p Func) Attrs() []string {
	out := append([]string(nil), p.ReadAttrs...)
	sort.Strings(out)
	return out
}

// AppendPredicate appends p.String() to dst. The built-in predicates
// render here without fmt, a combinator's children straight into the same
// buffer; any other Predicate appends its own String(). Constants render
// exactly as %g and category values as %q (strconv's shortest 'g' form
// and AppendQuote): the text is the cache key and the transcript's bins.
func AppendPredicate(dst []byte, p Predicate) []byte {
	switch v := p.(type) {
	case NumCmp:
		return v.appendText(dst)
	case StrEq:
		return v.appendText(dst)
	case Range:
		return v.appendText(dst)
	case IsNull:
		return append(append(dst, v.Attr...), " IS NULL"...)
	case And:
		return appendJoined(dst, v, " AND ")
	case Or:
		return appendJoined(dst, v, " OR ")
	case Not:
		return append(AppendPredicate(append(dst, "NOT ("...), v.P), ')')
	case True:
		return append(dst, "TRUE"...)
	case Func:
		return append(dst, v.Name...)
	default:
		return append(dst, p.String()...)
	}
}

// appendJoined renders each child parenthesized, separated by sep.
func appendJoined(dst []byte, ps []Predicate, sep string) []byte {
	for i, p := range ps {
		if i > 0 {
			dst = append(dst, sep...)
		}
		dst = append(AppendPredicate(append(dst, '('), p), ')')
	}
	return dst
}

// appendNum renders a constant as %g does.
func appendNum(dst []byte, f float64) []byte { return strconv.AppendFloat(dst, f, 'g', -1, 64) }

func unionAttrs(ps []Predicate) []string {
	set := make(map[string]struct{})
	for _, p := range ps {
		for _, a := range p.Attrs() {
			set[a] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}
