package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/accuracy"
	"repro/internal/dataset"
	"repro/internal/durable"
	"repro/internal/query"
	"repro/internal/workload"
)

// The oracle: EncodeEntry as it was written before the hand-rolled writer,
// a reflective json.Marshal of entryWire with each predicate marshaled
// reflectively on its own. EncodeEntry must emit exactly its bytes, and
// fail exactly where it fails.

// oraclePred is dataset's predicate wire node, field for field.
type oraclePred struct {
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

func oracleMarshalPredicate(p dataset.Predicate) ([]byte, error) {
	switch v := p.(type) {
	case dataset.NumCmp:
		return json.Marshal(oraclePred{T: "num", Attr: v.Attr, Op: v.Op.String(), C: &v.C})
	case dataset.StrEq:
		return json.Marshal(oraclePred{T: "streq", Attr: v.Attr, Val: v.Val})
	case dataset.Range:
		return json.Marshal(oraclePred{T: "range", Attr: v.Attr, Lo: &v.Lo, Hi: &v.Hi})
	case dataset.IsNull:
		return json.Marshal(oraclePred{T: "isnull", Attr: v.Attr})
	case dataset.And:
		ps, err := oracleMarshalPredicates(v)
		if err != nil {
			return nil, err
		}
		return json.Marshal(oraclePred{T: "and", Ps: ps})
	case dataset.Or:
		ps, err := oracleMarshalPredicates(v)
		if err != nil {
			return nil, err
		}
		return json.Marshal(oraclePred{T: "or", Ps: ps})
	case dataset.Not:
		inner, err := oracleMarshalPredicate(v.P)
		if err != nil {
			return nil, err
		}
		return json.Marshal(oraclePred{T: "not", P: inner})
	case dataset.True:
		return json.Marshal(oraclePred{T: "true"})
	default:
		return nil, fmt.Errorf("oracle: predicate %T cannot be serialized", p)
	}
}

func oracleMarshalPredicates(ps []dataset.Predicate) ([]json.RawMessage, error) {
	out := make([]json.RawMessage, len(ps))
	for i, p := range ps {
		b, err := oracleMarshalPredicate(p)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

func oracleEncodeEntry(e Entry) ([]byte, error) {
	w := entryWire{Label: e.Label, Denied: e.Denied, Epsilon: e.Epsilon, TraceID: e.TraceID}
	if !e.At.IsZero() {
		w.At = e.At.UnixNano()
	}
	if q := e.Query; q != nil {
		qw := &queryWire{Kind: q.Kind.String(), Threshold: q.Threshold, K: q.K, Alpha: q.Req.Alpha, Beta: q.Req.Beta}
		ps, err := oracleMarshalPredicates(q.Predicates)
		if err != nil {
			return nil, err
		}
		qw.Predicates = ps
		w.Query = qw
	}
	if a := e.Answer; a != nil {
		w.Answer = &answerWire{Counts: a.Counts, Selected: a.Selected, Epsilon: a.Epsilon, EpsilonUpper: a.EpsilonUpper, Mechanism: a.Mechanism}
	}
	return json.Marshal(w)
}

// checkMatchesOracle fails t unless EncodeEntry(e) and the oracle agree:
// the same bytes, or both an error.
func checkMatchesOracle(t *testing.T, e Entry) {
	t.Helper()
	got, gotErr := EncodeEntry(e)
	want, wantErr := oracleEncodeEntry(e)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("EncodeEntry err %v, oracle err %v\n got %s\nwant %s", gotErr, wantErr, got, want)
	case !bytes.Equal(got, want):
		t.Fatalf("EncodeEntry differs from encoding/json:\n got %s\nwant %s", got, want)
	}
}

// Byte strings no decoded entry can carry: invalid UTF-8, the JSONP line
// separators U+2028/U+2029 (written as their UTF-8 bytes), control bytes,
// HTML-sensitive characters.
const (
	invalidUTF8 = "a\xffb\xc3(c\xed\xa0\x80"
	separators  = "x\xe2\x80\xa8y\xe2\x80\xa9z"
	controls    = "\x00\x01\b\f\n\r\t\x1f\x7f\"\\/"
	htmlish     = "<a href='x'>&amp;</a>"
)

// oracleCases are hand-made entries at the edges of both encoders.
func oracleCases() []Entry {
	negZero := math.Copysign(0, -1)
	prefix, err := workload.Prefix1D("age", 0, 100, 6.25)
	if err != nil {
		panic(err)
	}
	counts := make([]float64, len(prefix))
	for i := range counts {
		counts[i] = float64(i)*1234.5678 - 3
	}
	q := func(kind query.Kind, k int, preds ...dataset.Predicate) *query.Query {
		return &query.Query{Kind: kind, Predicates: preds, Threshold: 0.5, K: k, Req: accuracy.Requirement{Alpha: 10, Beta: 0.05}}
	}
	nested := dataset.Not{P: dataset.And{
		dataset.Or{dataset.True{}, dataset.IsNull{Attr: "x"}},
		dataset.Not{P: dataset.Range{Attr: "y", Lo: negZero, Hi: 1e21}},
		dataset.And{},
		dataset.Or{},
	}}
	return []Entry{
		{Label: "SUM(age)", Epsilon: 0.15},
		{Epsilon: negZero},
		{Label: htmlish + invalidUTF8 + separators + controls, Epsilon: 5e-324, TraceID: "t" + separators, At: time.Unix(0, 1).UTC()},
		{Query: q(query.WCQ, 0, prefix...), Epsilon: 0.05, Answer: &Answer{Counts: counts, Epsilon: 0.05, EpsilonUpper: 0.05, Mechanism: "SM-h2"}},
		{Query: q(query.TCQ, 0), Denied: true},
		{Query: q(query.ICQ, 3, nested, dataset.And{}), Epsilon: 1e-7, Answer: &Answer{Counts: []float64{}, Selected: []bool{}, Epsilon: 1e-7, EpsilonUpper: 1e20}},
		{Query: q(query.TCQ, 2,
			dataset.NumCmp{Attr: htmlish, Op: dataset.Ge, C: 1e-6},
			dataset.NumCmp{Attr: "a", Op: dataset.CmpOp(9), C: 123456789e-17},
			dataset.StrEq{Attr: invalidUTF8, Val: htmlish + separators + controls},
			dataset.StrEq{Attr: "", Val: ""},
			dataset.IsNull{},
			dataset.Range{Attr: "r", Lo: -1e21, Hi: 0.000001},
		), Epsilon: 2, Answer: &Answer{Selected: []bool{true, false, true, false, false, true}, Epsilon: 2, EpsilonUpper: 3, Mechanism: htmlish}},
		{Query: q(query.WCQ, 0, dataset.NumCmp{Attr: "a", C: math.NaN()})},
		{Query: q(query.WCQ, 0, dataset.Range{Attr: "a", Lo: math.Inf(-1), Hi: 0})},
		{Epsilon: math.Inf(1)},
		{Answer: &Answer{Counts: []float64{1, math.NaN()}}},
		{Answer: &Answer{EpsilonUpper: math.Inf(-1)}},
		{Query: q(query.WCQ, 0, dataset.Func{Name: "opaque"})},
		{Query: q(query.WCQ, 0, dataset.Not{P: dataset.Or{dataset.True{}, dataset.Func{Name: "opaque"}}})},
		{Query: q(query.WCQ, 0, nil)},
		{Query: q(query.Kind(7), 0, dataset.True{}), At: time.Unix(0, 0)},
	}
}

func TestEncodeEntryMatchesJSON(t *testing.T) {
	for i, e := range oracleCases() {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkMatchesOracle(t, e) })
	}
}

// rawEntry builds an entry straight from fuzz bytes, reaching what no
// decoded entry holds: invalid UTF-8, NaN and ±Inf, any float bits. The
// bytes up to the first NUL are the strings; each 8 bytes after it are a
// float; the float count picks the comparison operator and the counts.
func rawEntry(b []byte) Entry {
	s, rest, _ := bytes.Cut(b, []byte{0})
	str := string(s)
	var fs []float64
	for ; len(rest) >= 8; rest = rest[8:] {
		fs = append(fs, math.Float64frombits(binary.LittleEndian.Uint64(rest)))
	}
	f := func(i int) float64 {
		if i < len(fs) {
			return fs[i]
		}
		return float64(i) / 3
	}
	preds := []dataset.Predicate{
		dataset.NumCmp{Attr: str, Op: dataset.CmpOp(len(fs) % 7), C: f(0)},
		dataset.StrEq{Attr: str, Val: str},
		dataset.Range{Attr: str, Lo: f(1), Hi: f(2)},
		dataset.Not{P: dataset.And{dataset.IsNull{Attr: str}, dataset.Or{}}},
	}
	sel := make([]bool, len(fs))
	for i, x := range fs {
		sel[i] = math.Signbit(x)
	}
	return Entry{
		Query:   &query.Query{Kind: query.Kind(len(s) % 4), Predicates: preds, Threshold: f(3), K: len(fs), Req: accuracy.Requirement{Alpha: f(4), Beta: f(5)}},
		Label:   str,
		Denied:  len(s)%2 == 1,
		Epsilon: f(6),
		Answer:  &Answer{Counts: fs, Selected: sel, Epsilon: f(7), EpsilonUpper: f(8), Mechanism: str},
		TraceID: str,
		At:      time.Unix(0, int64(len(b))),
	}
}

// FuzzEncodeEntryMatchesJSON: the hand-rolled EncodeEntry against the
// reflective encoder it replaced, on every entry DecodeEntry accepts from
// the fuzzed bytes and on an entry built from the raw bytes themselves.
// Seeded with the parent commit's session log, the transcript golden and
// the oracle's encodings of the hand-made edge cases.
func FuzzEncodeEntryMatchesJSON(f *testing.F) {
	wal, err := os.ReadFile(filepath.Join("..", "store", "testdata", "session_c6f28c6.wal"))
	if err != nil {
		f.Fatal(err)
	}
	frames, _, torn, err := durable.Scan(wal, len("APEXWAL1"), 1<<20)
	if err != nil || torn || len(frames) != 3 {
		f.Fatalf("fixture: %d frames, torn %v, err %v", len(frames), torn, err)
	}
	for _, frame := range frames {
		f.Add(frame)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "transcript_golden.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(golden), []byte("\n")) {
		f.Add(line)
	}
	for _, e := range oracleCases() {
		if b, err := oracleEncodeEntry(e); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte(htmlish + invalidUTF8 + separators + controls + "\x00\x00\x00\x00\x00\x00\x00\x00\x80\x00\x00\x00\x00\x00\x00\xf0\x7f\x01\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, b []byte) {
		if e, err := DecodeEntry(b); err == nil {
			checkMatchesOracle(t, e)
		}
		checkMatchesOracle(t, rawEntry(b))
	})
}

// TestEncodeEntryAllocs pins the writer's cost: a 16-predicate answered
// entry is one buffer (the budget leaves room for one regrowth).
func TestEncodeEntryAllocs(t *testing.T) {
	e := oracleCases()[3]
	if n := len(e.Query.Predicates); n != 16 {
		t.Fatalf("case has %d predicates, want 16", n)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := EncodeEntry(e); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("EncodeEntry of a 16-predicate answered entry: %v allocations, want ≤ 2", allocs)
	}
}
