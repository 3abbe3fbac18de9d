package engine

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"repro/internal/accuracy"
	"repro/internal/dataset"
	"repro/internal/jsonw"
	"repro/internal/query"
)

// Replayable transcript entry encoding. The durable store (internal/store)
// frames each committed Entry as one WAL record; this file defines the
// payload: a JSON form that round-trips an Entry exactly, so a recovered
// transcript renders byte-identically over the wire and re-validates under
// ValidateTranscript with the same arithmetic.
//
// Queries are carried structurally (kind, predicates via the dataset
// predicate codec, threshold/k, accuracy requirement) rather than as
// rendered text: the text form is lossy (Range renders in math notation
// the parser does not accept). Counts and epsilons are float64s, written
// in their shortest round-tripping form, so they decode exactly.

// entryWire is the on-disk form of one Entry, as DecodeEntry reads it;
// appendEntry writes the same fields in the same order. Float fields are
// never omitempty: omitempty drops -0.0 (it compares equal to zero), and the
// decoded +0.0 would render differently, breaking the byte-identical
// transcript guarantee. The provenance pair (trace_id, at_ns) is only
// present when the entry was committed by a traced request — engine-
// direct transcripts encode without it, byte-identically to before the
// fields existed. at_ns is unix nanoseconds: a time.Time struct can never
// be omitempty, an int64 can, and UnixNano round-trips exactly.
type entryWire struct {
	Query   *queryWire  `json:"query,omitempty"`
	Label   string      `json:"label,omitempty"`
	Denied  bool        `json:"denied,omitempty"`
	Epsilon float64     `json:"epsilon"`
	Answer  *answerWire `json:"answer,omitempty"`
	TraceID string      `json:"trace_id,omitempty"`
	At      int64       `json:"at_ns,omitempty"`
}

type queryWire struct {
	Kind       string            `json:"kind"`
	Predicates []json.RawMessage `json:"predicates"`
	Threshold  float64           `json:"threshold"`
	K          int               `json:"k,omitempty"`
	Alpha      float64           `json:"alpha"`
	Beta       float64           `json:"beta"`
}

type answerWire struct {
	Counts       []float64 `json:"counts,omitempty"`
	Selected     []bool    `json:"selected,omitempty"`
	Epsilon      float64   `json:"epsilon"`
	EpsilonUpper float64   `json:"epsilon_upper"`
	Mechanism    string    `json:"mechanism,omitempty"`
}

// EncodeEntry serializes one transcript entry for the WAL. Entries whose
// query uses a non-serializable predicate (dataset.Func) cannot be
// encoded; such queries only arise through the programmatic API, never
// from the parser the server and CLI feed. Neither can entries carrying a
// NaN or infinite float, which JSON has no form for.
//
// The writer is hand-rolled: it emits exactly the bytes encoding/json
// makes of the entryWire form (field order and omitempty as tagged there,
// floats and strings through internal/jsonw), without reflection and into
// one buffer sized up front. The codec tests pin the two byte for byte.
func EncodeEntry(e Entry) ([]byte, error) {
	return appendEntry(make([]byte, 0, entrySizeHint(e)), e)
}

// entrySizeHint is a generous estimate of e's encoded length, so the
// buffer is allocated once in the common case.
func entrySizeHint(e Entry) int {
	n := 160 + len(e.Label) + len(e.TraceID)
	if e.Query != nil {
		n += 96 * len(e.Query.Predicates)
	}
	if e.Answer != nil {
		n += 24*len(e.Answer.Counts) + 6*len(e.Answer.Selected) + len(e.Answer.Mechanism)
	}
	return n
}

func appendEntry(b []byte, e Entry) ([]byte, error) {
	var err error
	b = append(b, '{')
	if e.Query != nil {
		if b, err = appendQuery(append(b, `"query":`...), e.Query); err != nil {
			return nil, err
		}
		b = append(b, ',')
	}
	if e.Label != "" {
		b = append(jsonw.AppendString(append(b, `"label":`...), e.Label), ',')
	}
	if e.Denied {
		b = append(b, `"denied":true,`...)
	}
	if b, err = jsonw.AppendFloat(append(b, `"epsilon":`...), e.Epsilon); err != nil {
		return nil, err
	}
	if a := e.Answer; a != nil {
		if b, err = appendAnswer(append(b, `,"answer":`...), a); err != nil {
			return nil, err
		}
	}
	if e.TraceID != "" {
		b = jsonw.AppendString(append(b, `,"trace_id":`...), e.TraceID)
	}
	if !e.At.IsZero() {
		if at := e.At.UnixNano(); at != 0 {
			b = strconv.AppendInt(append(b, `,"at_ns":`...), at, 10)
		}
	}
	return append(b, '}'), nil
}

// appendQuery writes the queryWire object.
func appendQuery(b []byte, q *query.Query) ([]byte, error) {
	var err error
	b = jsonw.AppendString(append(b, `{"kind":`...), q.Kind.String())
	b = append(b, `,"predicates":[`...)
	for i, p := range q.Predicates {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = dataset.AppendPredicateJSON(b, p); err != nil {
			return nil, fmt.Errorf("engine: entry query: %w", err)
		}
	}
	if b, err = jsonw.AppendFloat(append(b, `],"threshold":`...), q.Threshold); err != nil {
		return nil, err
	}
	if q.K != 0 {
		b = strconv.AppendInt(append(b, `,"k":`...), int64(q.K), 10)
	}
	if b, err = jsonw.AppendFloat(append(b, `,"alpha":`...), q.Req.Alpha); err != nil {
		return nil, err
	}
	if b, err = jsonw.AppendFloat(append(b, `,"beta":`...), q.Req.Beta); err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// appendAnswer writes the answerWire object.
func appendAnswer(b []byte, a *Answer) ([]byte, error) {
	var err error
	b = append(b, '{')
	if len(a.Counts) > 0 {
		b = append(b, `"counts":[`...)
		for i, c := range a.Counts {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = jsonw.AppendFloat(b, c); err != nil {
				return nil, err
			}
		}
		b = append(b, `],`...)
	}
	if len(a.Selected) > 0 {
		b = append(b, `"selected":[`...)
		for i, sel := range a.Selected {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendBool(b, sel)
		}
		b = append(b, `],`...)
	}
	if b, err = jsonw.AppendFloat(append(b, `"epsilon":`...), a.Epsilon); err != nil {
		return nil, err
	}
	if b, err = jsonw.AppendFloat(append(b, `,"epsilon_upper":`...), a.EpsilonUpper); err != nil {
		return nil, err
	}
	if a.Mechanism != "" {
		b = jsonw.AppendString(append(b, `,"mechanism":`...), a.Mechanism)
	}
	return append(b, '}'), nil
}

// DecodeEntry parses the EncodeEntry form. A decoded answer shares the
// query's predicate slice, matching how Ask builds answers.
func DecodeEntry(b []byte) (Entry, error) {
	var w entryWire
	if err := json.Unmarshal(b, &w); err != nil {
		return Entry{}, fmt.Errorf("engine: entry JSON: %w", err)
	}
	e := Entry{Label: w.Label, Denied: w.Denied, Epsilon: w.Epsilon, TraceID: w.TraceID}
	if w.At != 0 {
		e.At = time.Unix(0, w.At).UTC()
	}
	if w.Query != nil {
		q, err := decodeQuery(w.Query)
		if err != nil {
			return Entry{}, err
		}
		e.Query = q
	}
	if w.Answer != nil {
		e.Answer = &Answer{
			Counts:       w.Answer.Counts,
			Selected:     w.Answer.Selected,
			Epsilon:      w.Answer.Epsilon,
			EpsilonUpper: w.Answer.EpsilonUpper,
			Mechanism:    w.Answer.Mechanism,
		}
		if e.Query != nil {
			e.Answer.Predicates = e.Query.Predicates
		}
	}
	return e, nil
}

func decodeQuery(w *queryWire) (*query.Query, error) {
	q := &query.Query{
		Threshold: w.Threshold,
		K:         w.K,
		Req:       accuracy.Requirement{Alpha: w.Alpha, Beta: w.Beta},
	}
	switch w.Kind {
	case "WCQ":
		q.Kind = query.WCQ
	case "ICQ":
		q.Kind = query.ICQ
	case "TCQ":
		q.Kind = query.TCQ
	default:
		return nil, fmt.Errorf("engine: entry query: unknown kind %q", w.Kind)
	}
	q.Predicates = make([]dataset.Predicate, len(w.Predicates))
	for i, raw := range w.Predicates {
		p, err := dataset.UnmarshalPredicate(raw)
		if err != nil {
			return nil, fmt.Errorf("engine: entry query: %w", err)
		}
		q.Predicates[i] = p
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("engine: entry query: %w", err)
	}
	return q, nil
}
