// Package dataset implements APEx's relational substrate: a single-table
// schema R(A1..Ad) with categorical and continuous attributes, multiset
// table instances, a typed predicate AST used to express exploration
// workloads, and CSV import/export.
//
// Tables are stored column-major — dictionary-encoded int32 codes for
// categorical attributes, packed float64s plus a missing bitmap for
// continuous ones — and workloads are evaluated attribute-at-a-time:
// Atoms (classify.go) maps each row of a column to the elementary class
// of values its predicates can distinguish, one pass per column however
// many predicates there are. The row-at-a-time Predicate.Eval remains the
// semantic reference; the columnar path matches it exactly.
//
// The paper assumes the schema and full attribute domains are public
// (§3); only the table instance is sensitive.
package dataset

import (
	"fmt"
	"strconv"
)

// AttrKind distinguishes categorical from continuous attributes.
type AttrKind int

const (
	// Categorical attributes take values from a finite public set.
	Categorical AttrKind = iota
	// Continuous attributes take numeric values in a public interval.
	Continuous
)

// String implements fmt.Stringer.
func (k AttrKind) String() string {
	switch k {
	case Categorical:
		return "categorical"
	case Continuous:
		return "continuous"
	default:
		return fmt.Sprintf("AttrKind(%d)", int(k))
	}
}

// Attribute describes one column of the public schema.
type Attribute struct {
	Name string
	Kind AttrKind
	// Values is the public finite domain for Categorical attributes.
	Values []string
	// Min and Max delimit the public domain for Continuous attributes.
	Min, Max float64
}

// Clamp returns v clipped to the continuous attribute's public domain
// [Min, Max] — what one tuple's value may add to a sum of the attribute
// under the sensitivity the domain bounds. ok is false for NaN, which
// adds nothing.
func (a Attribute) Clamp(v float64) (clamped float64, ok bool) {
	if v != v {
		return 0, false
	}
	return min(max(v, a.Min), a.Max), true
}

// Schema is a single-table relational schema with public domains.
type Schema struct {
	attrs []Attribute
	index map[string]int
}

// NewSchema builds a schema from attribute descriptions. Attribute names
// must be unique and non-empty.
func NewSchema(attrs ...Attribute) (*Schema, error) {
	s := &Schema{index: make(map[string]int, len(attrs))}
	for _, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("dataset: attribute with empty name")
		}
		if _, dup := s.index[a.Name]; dup {
			return nil, fmt.Errorf("dataset: duplicate attribute %q", a.Name)
		}
		if a.Kind == Continuous && a.Min > a.Max {
			return nil, fmt.Errorf("dataset: attribute %q has Min %v > Max %v", a.Name, a.Min, a.Max)
		}
		if a.Kind == Categorical && len(a.Values) == 0 {
			return nil, fmt.Errorf("dataset: categorical attribute %q has empty domain", a.Name)
		}
		s.index[a.Name] = len(s.attrs)
		s.attrs = append(s.attrs, a)
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; intended for statically
// known schemas in generators and tests.
func MustSchema(attrs ...Attribute) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.attrs) }

// Attr returns the attribute at position i.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Lookup returns the position of the named attribute.
func (s *Schema) Lookup(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// AttrByName returns the named attribute.
func (s *Schema) AttrByName(name string) (Attribute, bool) {
	if i, ok := s.index[name]; ok {
		return s.attrs[i], true
	}
	return Attribute{}, false
}

// Names returns attribute names in schema order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		out[i] = a.Name
	}
	return out
}

// Value is one cell of a tuple: either a categorical string, a continuous
// float, or NULL. The zero Value is NULL.
type Value struct {
	kind  valueKind
	str   string
	num   float64
	_null struct{} // keep Value comparable and explicit about null state
}

type valueKind int

const (
	nullValue valueKind = iota
	strValue
	numValue
)

// Null is the NULL cell value.
var Null = Value{}

// Str returns a categorical value.
func Str(v string) Value { return Value{kind: strValue, str: v} }

// Num returns a continuous value.
func Num(v float64) Value { return Value{kind: numValue, num: v} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == nullValue }

// AsStr returns the string content; ok is false for non-string values.
func (v Value) AsStr() (string, bool) { return v.str, v.kind == strValue }

// AsNum returns the numeric content; ok is false for non-numeric values.
func (v Value) AsNum() (float64, bool) { return v.num, v.kind == numValue }

// String implements fmt.Stringer.
func (v Value) String() string {
	switch v.kind {
	case nullValue:
		return "NULL"
	case strValue:
		return v.str
	default:
		return strconv.FormatFloat(v.num, 'g', -1, 64) // exactly %g
	}
}

// Tuple and Table (the columnar storage behind the row API) live in
// table.go; the predicate AST in predicate.go; the atom classifier the
// workload scan kernel reads columns through in classify.go.
