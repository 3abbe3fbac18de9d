// Package oracle is apex-load's independent ground truth. It reads the
// same generated CSV text the server ingests, but shares none of the
// server's evaluation code: no schema, no dictionary codes, no bitmaps, no
// kernels. Range counts come from binary searches over sorted copies of
// the parsed columns, so checking thousands of fresh workloads against
// millions of rows stays cheap.
//
// On top of the counts it checks the paper's accuracy contract: each
// answer either meets its α bound or it is a miss, and over n answers the
// miss share must stay within β plus four binomial standard errors.
package oracle

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/bench/loadgen"
)

// Table is the parsed CSV, column by column.
type Table struct {
	rows  int
	nums  map[string][]float64 // continuous columns; NaN marks an empty field
	cats  map[string]*catColumn
	index map[indexKey][]float64
}

// catColumn is a categorical column as small integers in first-seen
// order, so a million-row column costs two bytes a row, not a string.
type catColumn struct {
	codes  []uint16
	byText map[string]uint16
}

// indexKey names one sorted projection: the values of attr over the rows
// where cat = val (all rows when cat is empty).
type indexKey struct{ attr, cat, val string }

// Load parses a CSV with a header row, keeping the named continuous and
// categorical columns. An empty continuous field is a NULL, which no
// range contains.
func Load(r io.Reader, continuous, categorical []string) (*Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("oracle: read header: %w", err)
	}
	pos := make(map[string]int, len(header))
	for i, name := range header {
		pos[name] = i
	}
	t := &Table{nums: make(map[string][]float64), cats: make(map[string]*catColumn), index: make(map[indexKey][]float64)}
	type numCol struct {
		at   int
		vals []float64
	}
	type catCol struct {
		at  int
		col *catColumn
	}
	var ncs []*numCol
	var ccs []catCol
	for _, name := range continuous {
		p, ok := pos[name]
		if !ok {
			return nil, fmt.Errorf("oracle: csv has no column %q", name)
		}
		ncs = append(ncs, &numCol{at: p})
	}
	for _, name := range categorical {
		p, ok := pos[name]
		if !ok {
			return nil, fmt.Errorf("oracle: csv has no column %q", name)
		}
		c := &catColumn{byText: make(map[string]uint16)}
		t.cats[name] = c
		ccs = append(ccs, catCol{p, c})
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("oracle: row %d: %w", t.rows+1, err)
		}
		for _, c := range ncs {
			v := math.NaN()
			if f := rec[c.at]; f != "" {
				if v, err = strconv.ParseFloat(f, 64); err != nil {
					return nil, fmt.Errorf("oracle: row %d column %q: %w", t.rows+1, header[c.at], err)
				}
			}
			c.vals = append(c.vals, v)
		}
		for _, c := range ccs {
			code, ok := c.col.byText[rec[c.at]]
			if !ok {
				code = uint16(len(c.col.byText))
				c.col.byText[strings.Clone(rec[c.at])] = code // rec pins its whole row
			}
			c.col.codes = append(c.col.codes, code)
		}
		t.rows++
	}
	for i, name := range continuous {
		t.nums[name] = ncs[i].vals
	}
	return t, nil
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return t.rows }

func (t *Table) sorted(k indexKey) ([]float64, error) {
	if s, ok := t.index[k]; ok {
		return s, nil
	}
	vals, ok := t.nums[k.attr]
	if !ok {
		return nil, fmt.Errorf("oracle: continuous column %q not loaded", k.attr)
	}
	var codes []uint16
	var want uint16
	if k.cat != "" {
		c, ok := t.cats[k.cat]
		if !ok {
			return nil, fmt.Errorf("oracle: categorical column %q not loaded", k.cat)
		}
		if want, ok = c.byText[k.val]; !ok {
			// No row carries the value: an empty projection.
			t.index[k] = nil
			return nil, nil
		}
		codes = c.codes
	}
	s := make([]float64, 0, len(vals))
	for i, v := range vals {
		if math.IsNaN(v) || (codes != nil && codes[i] != want) {
			continue
		}
		s = append(s, v)
	}
	sort.Float64s(s)
	t.index[k] = s
	return s, nil
}

// Count returns how many rows satisfy p.
func (t *Table) Count(p loadgen.Pred) (float64, error) {
	s, err := t.sorted(indexKey{p.Attr, p.Cat, p.Val})
	if err != nil {
		return 0, err
	}
	below := func(x float64) int { return sort.Search(len(s), func(i int) bool { return s[i] >= x }) }
	return float64(below(p.Hi) - below(p.Lo)), nil
}

// Truth returns the exact count of every predicate of q.
func (t *Table) Truth(q *loadgen.Query) ([]float64, error) {
	out := make([]float64, len(q.Preds))
	for i, p := range q.Preds {
		c, err := t.Count(p)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// Answer is the part of a server reply the contract speaks about.
type Answer struct {
	Counts   []float64
	Selected []bool
}

// CheckShape reports whether a is a well-formed answer to q: one noisy
// count per predicate for a WCQ, one selection flag per predicate for an
// ICQ or TCQ, and exactly K selections for a TCQ.
func CheckShape(q *loadgen.Query, a Answer) error {
	l := len(q.Preds)
	switch q.Kind {
	case loadgen.WCQ:
		if len(a.Counts) != l || len(a.Selected) != 0 {
			return fmt.Errorf("WCQ over %d predicates answered with %d counts, %d selections", l, len(a.Counts), len(a.Selected))
		}
		for _, c := range a.Counts {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return fmt.Errorf("WCQ answer holds a non-finite count")
			}
		}
	case loadgen.ICQ, loadgen.TCQ:
		if len(a.Selected) != l || len(a.Counts) != 0 {
			return fmt.Errorf("%s over %d predicates answered with %d selections, %d counts", q.Kind, l, len(a.Selected), len(a.Counts))
		}
		if q.Kind == loadgen.TCQ {
			n := 0
			for _, s := range a.Selected {
				if s {
					n++
				}
			}
			if n != q.K {
				return fmt.Errorf("TCQ LIMIT %d answered with %d selections", q.K, n)
			}
		}
	default:
		return fmt.Errorf("unknown query kind %q", q.Kind)
	}
	return nil
}

// Error returns the realised error of a well-formed answer in count
// units, per Definitions 3.1–3.3: the largest count error of a WCQ; the
// largest distance by which a mislabelled predicate's true count lies on
// the wrong side of the threshold for an ICQ; the same against the true
// k-th largest count for a TCQ.
func Error(q *loadgen.Query, truth []float64, a Answer) float64 {
	var worst float64
	if q.Kind == loadgen.WCQ {
		for i, c := range a.Counts {
			worst = math.Max(worst, math.Abs(c-truth[i]))
		}
		return worst
	}
	cut := q.Threshold
	if q.Kind == loadgen.TCQ {
		desc := append([]float64(nil), truth...)
		sort.Sort(sort.Reverse(sort.Float64Slice(desc)))
		cut = desc[q.K-1]
	}
	for i, sel := range a.Selected {
		switch {
		case sel && truth[i] < cut:
			worst = math.Max(worst, cut-truth[i])
		case !sel && truth[i] > cut:
			worst = math.Max(worst, truth[i]-cut)
		}
	}
	return worst
}

// Tally accumulates contract outcomes for one query kind.
type Tally struct {
	Answers int
	Misses  int // answers whose realised error exceeded α
}

// Add records one answer's realised error against its α.
func (t *Tally) Add(err, alpha float64) {
	t.Answers++
	if err > alpha {
		t.Misses++
	}
}

// MissBound is the largest miss share n answers may show before the
// (α, β) contract counts as broken: β plus four standard errors of a
// Binomial(n, β) share. The strategy mechanism spends exactly its β, so
// at three standard errors a correct server would fail one tally in 740 —
// once in every few hundred benchmark runs; at four it is one in 30 000,
// and a noise scale 20% too small still fails within one repeat-hot run.
func MissBound(beta float64, n int) float64 {
	return beta + 4*math.Sqrt(beta*(1-beta)/float64(n))
}

// Holds reports whether the tally is consistent with failure probability β.
func (t Tally) Holds(beta float64) bool {
	return t.Answers == 0 || float64(t.Misses)/float64(t.Answers) <= MissBound(beta, t.Answers)
}
