package query

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/accuracy"
	"repro/internal/dataset"
)

// Parse parses one declarative exploration query:
//
//	BIN D ON COUNT(*) WHERE W = { <pred> [, <pred>]* }
//	  [HAVING COUNT(*) > <number>]
//	  [ORDER BY COUNT(*) LIMIT <int>]
//	  ERROR <number> CONFIDENCE <number> ;
//
// Predicate grammar (case-insensitive keywords):
//
//	pred   := term (OR term)*
//	term   := factor (AND factor)*
//	factor := NOT factor | '(' pred ')' | atom
//	atom   := attr op number | attr '=' 'string' | attr IS [NOT] NULL
//	        | attr BETWEEN number AND number
//	attr   := identifier | "double quoted name"
//	op     := = | != | < | <= | > | >=
//
// BETWEEN is half-open ([lo, hi)), matching the paper's bin convention.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	return q, nil
}

// MaxPredicateDepth bounds how deep NOT and parentheses may nest inside
// one predicate. The parser — and every walk of the tree it builds
// (String, Eval, the transcript codec) — recurses once per level, so
// without a bound a 1 MiB line of "(" or "NOT" is a megabyte-deep stack
// in each of them. Hand-written and generated workloads nest a few levels.
const MaxPredicateDepth = 64

// ErrTooDeep is the parse error for a predicate nested beyond
// MaxPredicateDepth.
var ErrTooDeep = errors.New("query: predicate nesting exceeds the limit")

type parser struct {
	toks  []token
	pos   int
	depth int // NOT and parenthesis levels open around the current factor
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

// acceptKeyword consumes an identifier equal (case-insensitively) to kw.
func (p *parser) acceptKeyword(kw string) bool {
	if p.cur().kind == tokIdent && strings.EqualFold(p.cur().text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("query: expected %s, got %s", kw, p.cur())
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	if p.cur().kind == tokSymbol && p.cur().text == sym {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return fmt.Errorf("query: expected %q, got %s", sym, p.cur())
	}
	return nil
}

func (p *parser) expectNumber() (float64, error) {
	neg := false
	if p.cur().kind == tokSymbol && p.cur().text == "-" {
		neg = true
		p.pos++
	}
	if p.cur().kind != tokNumber {
		return 0, fmt.Errorf("query: expected number, got %s", p.cur())
	}
	v, err := strconv.ParseFloat(p.next().text, 64)
	if err != nil {
		return 0, fmt.Errorf("query: bad number: %w", err)
	}
	if neg {
		v = -v
	}
	return v, nil
}

func (p *parser) parseCountStar() error {
	if err := p.expectKeyword("COUNT"); err != nil {
		return err
	}
	if err := p.expectSymbol("("); err != nil {
		return err
	}
	if err := p.expectSymbol("*"); err != nil {
		return err
	}
	return p.expectSymbol(")")
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expectKeyword("BIN"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("D"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	if err := p.parseCountStar(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("WHERE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("W"); err != nil {
		return nil, err
	}
	if err := p.expectSymbol("="); err != nil {
		return nil, err
	}
	if err := p.expectSymbol("{"); err != nil {
		return nil, err
	}
	var preds []dataset.Predicate
	for {
		pr, err := p.parsePredicate()
		if err != nil {
			return nil, err
		}
		preds = append(preds, pr)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol("}"); err != nil {
		return nil, err
	}

	q := &Query{Kind: WCQ, Predicates: preds}
	if p.acceptKeyword("HAVING") {
		if err := p.parseCountStar(); err != nil {
			return nil, err
		}
		if err := p.expectSymbol(">"); err != nil {
			return nil, err
		}
		c, err := p.expectNumber()
		if err != nil {
			return nil, err
		}
		q.Kind, q.Threshold = ICQ, c
	} else if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		if err := p.parseCountStar(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("LIMIT"); err != nil {
			return nil, err
		}
		k, err := p.expectNumber()
		if err != nil {
			return nil, err
		}
		if k != float64(int(k)) {
			return nil, fmt.Errorf("query: LIMIT must be an integer, got %g", k)
		}
		q.Kind, q.K = TCQ, int(k)
	}

	if err := p.expectKeyword("ERROR"); err != nil {
		return nil, err
	}
	alpha, err := p.expectNumber()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("CONFIDENCE"); err != nil {
		return nil, err
	}
	conf, err := p.expectNumber()
	if err != nil {
		return nil, err
	}
	q.Req = accuracy.Requirement{Alpha: alpha, Beta: 1 - conf}
	p.acceptSymbol(";")
	if p.cur().kind != tokEOF {
		return nil, fmt.Errorf("query: trailing input at %s", p.cur())
	}
	return q, q.Validate()
}

func (p *parser) parsePredicate() (dataset.Predicate, error) {
	return p.parseOr()
}

func (p *parser) parseOr() (dataset.Predicate, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	terms := []dataset.Predicate{left}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		terms = append(terms, right)
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return dataset.Or(terms), nil
}

func (p *parser) parseAnd() (dataset.Predicate, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	factors := []dataset.Predicate{left}
	for p.acceptKeyword("AND") {
		right, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		factors = append(factors, right)
	}
	if len(factors) == 1 {
		return factors[0], nil
	}
	return dataset.And(factors), nil
}

func (p *parser) parseFactor() (dataset.Predicate, error) {
	not := p.acceptKeyword("NOT")
	if !not && !p.acceptSymbol("(") {
		return p.parseAtom()
	}
	if p.depth == MaxPredicateDepth {
		return nil, fmt.Errorf("%w of %d levels of NOT and parentheses, at %s", ErrTooDeep, MaxPredicateDepth, p.cur())
	}
	p.depth++
	defer func() { p.depth-- }()
	if not {
		inner, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return dataset.Not{P: inner}, nil
	}
	inner, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return inner, nil
}

func (p *parser) parseAtom() (dataset.Predicate, error) {
	if p.cur().kind != tokIdent {
		return nil, fmt.Errorf("query: expected attribute, got %s", p.cur())
	}
	attr := p.next().text

	// IS [NOT] NULL
	if p.acceptKeyword("IS") {
		neg := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		var pr dataset.Predicate = dataset.IsNull{Attr: attr}
		if neg {
			pr = dataset.Not{P: pr}
		}
		return pr, nil
	}

	// BETWEEN lo AND hi (half-open).
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.expectNumber()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.expectNumber()
		if err != nil {
			return nil, err
		}
		return dataset.Range{Attr: attr, Lo: lo, Hi: hi}, nil
	}

	if p.cur().kind != tokSymbol {
		return nil, fmt.Errorf("query: expected operator after %q, got %s", attr, p.cur())
	}
	opText := p.next().text
	var op dataset.CmpOp
	switch opText {
	case "=":
		op = dataset.Eq
	case "!=":
		op = dataset.Ne
	case "<":
		op = dataset.Lt
	case "<=":
		op = dataset.Le
	case ">":
		op = dataset.Gt
	case ">=":
		op = dataset.Ge
	default:
		return nil, fmt.Errorf("query: unknown operator %q", opText)
	}

	switch p.cur().kind {
	case tokString:
		val := p.next().text
		switch op {
		case dataset.Eq:
			return dataset.StrEq{Attr: attr, Val: val}, nil
		case dataset.Ne:
			return dataset.Not{P: dataset.StrEq{Attr: attr, Val: val}}, nil
		default:
			return nil, fmt.Errorf("query: operator %s not supported for string values", opText)
		}
	case tokNumber:
		v, err := p.expectNumber()
		if err != nil {
			return nil, err
		}
		return dataset.NumCmp{Attr: attr, Op: op, C: v}, nil
	default:
		return nil, fmt.Errorf("query: expected value after %q %s, got %s", attr, opText, p.cur())
	}
}
