package dataset

import (
	"encoding/json"
	"fmt"

	"repro/internal/jsonw"
)

// Predicate JSON codec. The transcript write-ahead log (internal/store)
// must re-materialize queries exactly as they were asked, and the rendered
// text form is not a faithful carrier: Range renders as "age∈[0,50)",
// which the query parser does not accept. So predicates are serialized
// structurally, as a tagged union mirroring the AST:
//
//	{"t":"num","attr":"age","op":"<=","c":50}
//	{"t":"streq","attr":"state","val":"CA"}
//	{"t":"range","attr":"age","lo":0,"hi":50}
//	{"t":"isnull","attr":"age"}
//	{"t":"and","ps":[...]} / {"t":"or","ps":[...]} / {"t":"not","p":...}
//	{"t":"true"}
//
// Float constants round-trip exactly (the writer emits the shortest
// representation that parses back to the same float64, as encoding/json
// does), so a decoded predicate renders byte-identically to the original
// in transcripts. Writing is hand-rolled (AppendPredicateJSON); reading
// stays on encoding/json.
//
// Func predicates wrap arbitrary Go closures and cannot be serialized;
// MarshalPredicate reports an error for them. Every predicate the query
// parser can produce is covered.

// predJSON is the wire form of one predicate node, as the decoder reads
// it; AppendPredicateJSON writes the same fields in the same order. The
// float constants are pointers so a node without one is told apart from
// a zero (and written always: omitting -0.0 as "empty" would decode as
// +0.0, which renders differently, breaking the byte-identical transcript
// guarantee).
type predJSON struct {
	T    string            `json:"t"`
	Attr string            `json:"attr,omitempty"`
	Op   string            `json:"op,omitempty"`
	C    *float64          `json:"c,omitempty"`
	Val  string            `json:"val,omitempty"`
	Lo   *float64          `json:"lo,omitempty"`
	Hi   *float64          `json:"hi,omitempty"`
	Ps   []json.RawMessage `json:"ps,omitempty"`
	P    json.RawMessage   `json:"p,omitempty"`
}

// MarshalPredicate serializes p to its structural JSON form. Predicates
// carrying Go closures (Func) are not serializable.
func MarshalPredicate(p Predicate) ([]byte, error) {
	b, err := AppendPredicateJSON(nil, p)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// AppendPredicateJSON appends p's structural JSON form to dst: byte for
// byte what encoding/json makes of the predJSON node (field order,
// omitempty, float and string forms), written without reflection. A NaN
// or infinite constant, a Func or a nil predicate is an error, and dst's
// bytes past its original length are then unspecified.
func AppendPredicateJSON(dst []byte, p Predicate) ([]byte, error) {
	var err error
	switch v := p.(type) {
	case NumCmp:
		dst = appendJSONField(appendJSONField(append(dst, `{"t":"num"`...), "attr", v.Attr), "op", v.Op.String())
		dst, err = jsonw.AppendFloat(append(dst, `,"c":`...), v.C)
	case StrEq:
		dst = appendJSONField(appendJSONField(append(dst, `{"t":"streq"`...), "attr", v.Attr), "val", v.Val)
	case Range:
		dst = appendJSONField(append(dst, `{"t":"range"`...), "attr", v.Attr)
		if dst, err = jsonw.AppendFloat(append(dst, `,"lo":`...), v.Lo); err == nil {
			dst, err = jsonw.AppendFloat(append(dst, `,"hi":`...), v.Hi)
		}
	case IsNull:
		dst = appendJSONField(append(dst, `{"t":"isnull"`...), "attr", v.Attr)
	case And:
		dst, err = appendJSONList(append(dst, `{"t":"and"`...), v)
	case Or:
		dst, err = appendJSONList(append(dst, `{"t":"or"`...), v)
	case Not:
		dst, err = AppendPredicateJSON(append(dst, `{"t":"not","p":`...), v.P)
	case True:
		dst = append(dst, `{"t":"true"`...)
	case Func:
		err = fmt.Errorf("dataset: predicate %q wraps a Go function and cannot be serialized", v.Name)
	case nil:
		err = fmt.Errorf("dataset: nil predicate")
	default:
		err = fmt.Errorf("dataset: predicate type %T cannot be serialized", p)
	}
	if err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// appendJSONField appends `,"name":"val"`, or nothing for an empty val
// (omitempty).
func appendJSONField(dst []byte, name, val string) []byte {
	if val == "" {
		return dst
	}
	dst = append(append(append(dst, ',', '"'), name...), '"', ':')
	return jsonw.AppendString(dst, val)
}

// appendJSONList appends `,"ps":[...]`, or nothing for no children
// (omitempty).
func appendJSONList(dst []byte, ps []Predicate) ([]byte, error) {
	if len(ps) == 0 {
		return dst, nil
	}
	dst = append(dst, `,"ps":[`...)
	for i, p := range ps {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = AppendPredicateJSON(dst, p); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// UnmarshalPredicate parses the MarshalPredicate form.
func UnmarshalPredicate(b []byte) (Predicate, error) {
	var in predJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return nil, fmt.Errorf("dataset: predicate JSON: %w", err)
	}
	switch in.T {
	case "num":
		op, err := parseCmpOp(in.Op)
		if err != nil {
			return nil, err
		}
		if in.C == nil {
			return nil, fmt.Errorf("dataset: predicate JSON: num without constant")
		}
		return NumCmp{Attr: in.Attr, Op: op, C: *in.C}, nil
	case "streq":
		return StrEq{Attr: in.Attr, Val: in.Val}, nil
	case "range":
		if in.Lo == nil || in.Hi == nil {
			return nil, fmt.Errorf("dataset: predicate JSON: range without bounds")
		}
		return Range{Attr: in.Attr, Lo: *in.Lo, Hi: *in.Hi}, nil
	case "isnull":
		return IsNull{Attr: in.Attr}, nil
	case "and":
		ps, err := unmarshalPredicates(in.Ps)
		if err != nil {
			return nil, err
		}
		return And(ps), nil
	case "or":
		ps, err := unmarshalPredicates(in.Ps)
		if err != nil {
			return nil, err
		}
		return Or(ps), nil
	case "not":
		if in.P == nil {
			return nil, fmt.Errorf("dataset: predicate JSON: not without operand")
		}
		inner, err := UnmarshalPredicate(in.P)
		if err != nil {
			return nil, err
		}
		return Not{P: inner}, nil
	case "true":
		return True{}, nil
	default:
		return nil, fmt.Errorf("dataset: predicate JSON: unknown type %q", in.T)
	}
}

func unmarshalPredicates(raw []json.RawMessage) ([]Predicate, error) {
	out := make([]Predicate, len(raw))
	for i, r := range raw {
		p, err := UnmarshalPredicate(r)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// parseCmpOp inverts CmpOp.String.
func parseCmpOp(s string) (CmpOp, error) {
	switch s {
	case "=":
		return Eq, nil
	case "!=":
		return Ne, nil
	case "<":
		return Lt, nil
	case "<=":
		return Le, nil
	case ">":
		return Gt, nil
	case ">=":
		return Ge, nil
	default:
		return 0, fmt.Errorf("dataset: predicate JSON: unknown comparison operator %q", s)
	}
}
