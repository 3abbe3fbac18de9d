// Package workload implements the workload algebra of APEx §5: predicate
// workloads W = {ϕ1..ϕL}, the transformation T(W) that partitions the full
// domain dom(R) into the minimal discretized domain domW(R) on which every
// predicate is constant, the resulting L×|domW(R)| query matrix **W**, and
// the histogram extraction x = T_W(D).
//
// The transformation decomposes the workload into connected components of
// predicates that share attributes. Within a component the (small) grid of
// attribute "atoms" is enumerated and cells with identical predicate
// signatures are merged; across components the partition set is the cross
// product. The workload sensitivity ‖W‖₁ is the sum over components of the
// maximum number of predicates a single cell satisfies, which equals the
// max column sum of the materialized matrix. When the cross product is too
// large to materialize (e.g. 100 predicates over 100 distinct attributes),
// the Transformed stays implicit: sensitivity and true answers remain
// available, but matrix-based mechanisms report themselves inapplicable —
// exactly the "applicable mechanisms" notion of paper Algorithm 1.
package workload

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/memo"
)

// Options tunes the transformation limits.
type Options struct {
	// MaxPartitions caps the materialized global partition count. Above
	// the cap the Transformed stays implicit. Zero means DefaultMaxPartitions.
	MaxPartitions int
	// MaxCellsPerComponent caps the per-component atom-grid enumeration.
	// Zero means DefaultMaxCells.
	MaxCellsPerComponent int
}

// Default limits for Transform.
const (
	DefaultMaxPartitions = 4096
	DefaultMaxCells      = 1 << 20
)

// BreakpointProvider may be implemented by custom predicates (such as
// dataset.Func) to declare the numeric breakpoints at which their truth
// value can change, keyed by attribute. Without it, custom predicates
// cannot be transformed.
type BreakpointProvider interface {
	Breakpoints() map[string][]float64
}

// Transformed is the result of T(W): the partitioned domain, the query
// matrix (when materialized), and evaluation helpers.
type Transformed struct {
	schema *dataset.Schema
	preds  []dataset.Predicate

	sens  float64
	comps []*component

	parts int            // total partitions (product of component counts)
	mat   *linalg.Matrix // L×parts, nil when implicit

	// Columnar evaluation state (kernel.go): acc holds the constants the
	// predicates mention per attribute; the scan kernel derived from them
	// is built lazily on first evaluation and shared by every subsequent
	// one (a Transformed is immutable once built, so concurrent sessions
	// can evaluate through it). memo, when non-nil (set by
	// TransformCache), additionally caches the noise-free results per
	// table.
	acc   *atomAcc
	kOnce sync.Once
	k     colKernels
	memo  *memo.Cache[evalKey, []float64]

	// fpOnce/fp lazily cache the query-matrix fingerprint
	// (MatrixFingerprint), so the strategy-translation cache — which looks
	// plans up by it on every Translate — hashes the matrix once.
	fpOnce sync.Once
	fp     Fingerprint
}

// Fingerprint identifies a materialized query matrix by content: SHA-256
// over its dimensions and bit-packed 0/1 entries. Collision resistance is
// the point — the translation plane serves one plan per fingerprint, and
// a plan for the wrong matrix is a wrong privacy cost.
type Fingerprint [sha256.Size]byte

type component struct {
	predIdx []int // global predicate indices owned by this component
	attrs   []int // schema attribute positions
	// reps[i] is the representative tuple fragment for cell i; cells are
	// collapsed into partitions by signature.
	sigToPart map[string]int
	partSigs  []string // partition index -> signature over predIdx bits
	maxSat    int
}

// Transform computes T(W) for the workload preds over the public schema.
func Transform(s *dataset.Schema, preds []dataset.Predicate, opt Options) (*Transformed, error) {
	if len(preds) == 0 {
		return nil, fmt.Errorf("workload: empty workload")
	}
	if opt.MaxPartitions <= 0 {
		opt.MaxPartitions = DefaultMaxPartitions
	}
	if opt.MaxCellsPerComponent <= 0 {
		opt.MaxCellsPerComponent = DefaultMaxCells
	}

	acc := newAtomAcc(s)
	for i, p := range preds {
		if err := acc.collect(p); err != nil {
			return nil, fmt.Errorf("workload: predicate %d (%s): %w", i, p, err)
		}
	}

	tr := &Transformed{schema: s, preds: preds, acc: acc}
	groups := groupPredicates(s, preds)
	oversized := false
	for _, g := range groups {
		c, ok, err := buildComponent(s, preds, g, acc, opt.MaxCellsPerComponent)
		if err != nil {
			return nil, err
		}
		if !ok {
			// Component grid too large to enumerate: fall back to the safe
			// sensitivity upper bound (all predicates in the component can
			// overlap) and keep the whole transformation implicit.
			oversized = true
			tr.sens += float64(len(g))
			continue
		}
		tr.comps = append(tr.comps, c)
		tr.sens += float64(c.maxSat)
	}
	if oversized {
		tr.parts = -1
		tr.comps = nil
		return tr, nil
	}

	// Total partition count; overflow-safe product.
	parts := 1
	implicit := false
	for _, c := range tr.comps {
		n := len(c.partSigs)
		if parts > opt.MaxPartitions/n+1 {
			implicit = true
			break
		}
		parts *= n
		if parts > opt.MaxPartitions {
			implicit = true
			break
		}
	}
	if implicit {
		tr.parts = -1
		return tr, nil
	}
	tr.parts = parts
	tr.mat = tr.buildMatrix()
	return tr, nil
}

// L returns the number of predicates in the workload.
func (tr *Transformed) L() int { return len(tr.preds) }

// Predicates returns the workload predicates (shared slice).
func (tr *Transformed) Predicates() []dataset.Predicate { return tr.preds }

// Schema returns the public schema.
func (tr *Transformed) Schema() *dataset.Schema { return tr.schema }

// MatrixFingerprint returns the content address of Matrix(), computed
// once and cached: it depends only on the matrix (dimensions, entries,
// column order), never on the predicate text, so workloads that differ
// only in their constants — a histogram slid along its axis — share it.
// It is a pure function of the matrix, stable across processes. An
// implicit transformation has the zero Fingerprint.
func (tr *Transformed) MatrixFingerprint() Fingerprint {
	tr.fpOnce.Do(func() {
		if tr.mat != nil {
			tr.fp = fingerprintMatrix(tr.mat)
		}
	})
	return tr.fp
}

// fingerprintMatrix hashes a 0/1 matrix: a versioned tag, the dimensions,
// then the entries row-major, one bit each (each row padded to a byte).
func fingerprintMatrix(m *linalg.Matrix) Fingerprint {
	rows, cols := m.Rows(), m.Cols()
	h := sha256.New()
	fmt.Fprintf(h, "apex/matrix/v1\x00%d\x00%d\x00", rows, cols)
	packed := make([]byte, (cols+7)/8)
	for i := 0; i < rows; i++ {
		clear(packed)
		for j := 0; j < cols; j++ {
			if m.At(i, j) != 0 {
				packed[j>>3] |= 1 << uint(j&7)
			}
		}
		h.Write(packed)
	}
	var fp Fingerprint
	h.Sum(fp[:0])
	return fp
}

// Sensitivity returns ‖W‖₁, the workload sensitivity (max number of
// predicates any single tuple can satisfy).
func (tr *Transformed) Sensitivity() float64 { return tr.sens }

// Materialized reports whether the partition matrix was built.
func (tr *Transformed) Materialized() bool { return tr.mat != nil }

// NumPartitions returns |domW(R)|, or -1 when implicit.
func (tr *Transformed) NumPartitions() int { return tr.parts }

// Matrix returns the L×|domW(R)| query matrix, or nil when implicit.
func (tr *Transformed) Matrix() *linalg.Matrix { return tr.mat }

// Histogram computes x = T_W(D), the per-partition tuple counts, with at
// most one pass per referenced column (kernel.go): rows — or, when the
// table holds a projection of the referenced column set, its weighted
// distinct lane tuples — are classified into the workload's elementary
// intervals and counted per cell, instead of being interpreted predicate
// by predicate. It errors if the workload is
// implicit or a tuple falls outside the public domain. When the
// Transformed came from a TransformCache, the noise-free result is
// memoized per table and shared across callers.
func (tr *Transformed) Histogram(d *dataset.Table) ([]float64, error) {
	if tr.mat == nil {
		return nil, fmt.Errorf("workload: histogram unavailable for implicit transformation")
	}
	if tr.memo != nil {
		return tr.memoized(d, false, func() ([]float64, error) { return tr.histogram(d) })
	}
	return tr.histogram(d)
}

// histogram is the uncached evaluation behind Histogram: a batch of one.
func (tr *Transformed) histogram(d *dataset.Table) ([]float64, error) {
	t := &evalTask{tr: tr, hist: true}
	evaluate(d, []*evalTask{t})
	return t.x, t.xErr
}

// EvaluateUnprojected runs the scan kernel over d's own rows whatever
// projection d holds or could build — the path a column set without one
// takes — and returns both results of that one pass (x is nil for an
// implicit transformation). It exists, like HistogramRows, as a reference
// for differential tests and the form=rows benchmark arms; nothing on the
// request path calls it.
func (tr *Transformed) EvaluateUnprojected(d *dataset.Table) (x, truths []float64, err error) {
	t := &evalTask{tr: tr, hist: tr.mat != nil, truth: true, unprojected: true}
	evaluate(d, []*evalTask{t})
	return t.x, t.truths, t.xErr
}

// HistogramRows is the row-at-a-time reference implementation of
// Histogram (the seed data path), kept for differential testing and
// benchmarking of the columnar kernels.
func (tr *Transformed) HistogramRows(d *dataset.Table) ([]float64, error) {
	if tr.mat == nil {
		return nil, fmt.Errorf("workload: histogram unavailable for implicit transformation")
	}
	x := make([]float64, tr.parts)
	for i := 0; i < d.Size(); i++ {
		idx, sig := tr.partitionOf(d.Row(i))
		if idx < 0 {
			return nil, unseenSignature(i, sig)
		}
		x[idx]++
	}
	return x, nil
}

// TrueAnswers returns the exact workload answers c_ϕi(D) = w_i·x
// (available even for implicit transformations, and for tables on which
// Histogram errors), from the same cell counts as Histogram. When the Transformed came from a TransformCache, the
// noise-free result is memoized per table.
func (tr *Transformed) TrueAnswers(d *dataset.Table) []float64 {
	if tr.memo != nil {
		truths, _ := tr.memoized(d, true, func() ([]float64, error) { return tr.trueAnswers(d), nil })
		return truths
	}
	return tr.trueAnswers(d)
}

// trueAnswers is the uncached evaluation behind TrueAnswers.
func (tr *Transformed) trueAnswers(d *dataset.Table) []float64 {
	t := &evalTask{tr: tr, truth: true}
	evaluate(d, []*evalTask{t})
	return t.truths
}

// TrueAnswersRows is the row-at-a-time reference implementation of
// TrueAnswers (the seed data path), kept for differential testing and
// benchmarking of the columnar kernels.
func (tr *Transformed) TrueAnswersRows(d *dataset.Table) []float64 {
	out := make([]float64, len(tr.preds))
	for i := 0; i < d.Size(); i++ {
		row := d.Row(i)
		for j, p := range tr.preds {
			if p.Eval(tr.schema, row) {
				out[j]++
			}
		}
	}
	return out
}

// partitionOf maps a tuple to its global partition index (mixed radix over
// component partition indices), or to -1 and the first component
// signature no partition has — a tuple outside the public domain.
func (tr *Transformed) partitionOf(row dataset.Tuple) (int, string) {
	idx := 0
	for _, c := range tr.comps {
		var sig strings.Builder
		for _, pi := range c.predIdx {
			if tr.preds[pi].Eval(tr.schema, row) {
				sig.WriteByte('1')
			} else {
				sig.WriteByte('0')
			}
		}
		p, ok := c.sigToPart[sig.String()]
		if !ok {
			return -1, sig.String()
		}
		idx = idx*len(c.partSigs) + p
	}
	return idx, ""
}

// buildMatrix materializes W over the global partition cross product.
func (tr *Transformed) buildMatrix() *linalg.Matrix {
	m := linalg.NewMatrix(len(tr.preds), tr.parts)
	// Iterate the mixed-radix space of component partition indices.
	counts := make([]int, len(tr.comps))
	for i, c := range tr.comps {
		counts[i] = len(c.partSigs)
	}
	pos := make([]int, len(tr.comps))
	for col := 0; col < tr.parts; col++ {
		for ci, c := range tr.comps {
			sig := c.partSigs[pos[ci]]
			for bi, pi := range c.predIdx {
				if sig[bi] == '1' {
					m.Set(pi, col, 1)
				}
			}
		}
		// Increment mixed-radix counter (last component varies fastest to
		// match partitionOf's accumulation order).
		for ci := len(pos) - 1; ci >= 0; ci-- {
			pos[ci]++
			if pos[ci] < counts[ci] {
				break
			}
			pos[ci] = 0
		}
	}
	return m
}

// --- atom collection ---

type atomAcc struct {
	schema *dataset.Schema
	// numeric breakpoints per attribute position
	nums map[int]map[float64]struct{}
	// string constants per attribute position
	strs map[int]map[string]struct{}
	// opaque is set once a predicate that only evaluates row-at-a-time
	// (dataset.Func and other custom types) has been collected.
	opaque bool
}

func newAtomAcc(s *dataset.Schema) *atomAcc {
	return &atomAcc{
		schema: s,
		nums:   make(map[int]map[float64]struct{}),
		strs:   make(map[int]map[string]struct{}),
	}
}

// addAttr checks that a referenced attribute exists and returns its
// schema position.
func (a *atomAcc) addAttr(attr string) (int, error) {
	i, ok := a.schema.Lookup(attr)
	if !ok {
		return 0, fmt.Errorf("unknown attribute %q", attr)
	}
	return i, nil
}

func (a *atomAcc) addNum(attr string, c float64) error {
	i, err := a.addAttr(attr)
	if err != nil {
		return err
	}
	if a.nums[i] == nil {
		a.nums[i] = make(map[float64]struct{})
	}
	a.nums[i][c] = struct{}{}
	return nil
}

func (a *atomAcc) addStr(attr, v string) error {
	i, err := a.addAttr(attr)
	if err != nil {
		return err
	}
	if a.strs[i] == nil {
		a.strs[i] = make(map[string]struct{})
	}
	a.strs[i][v] = struct{}{}
	return nil
}

func (a *atomAcc) collect(p dataset.Predicate) error {
	switch q := p.(type) {
	case dataset.NumCmp:
		return a.addNum(q.Attr, q.C)
	case dataset.Range:
		if err := a.addNum(q.Attr, q.Lo); err != nil {
			return err
		}
		return a.addNum(q.Attr, q.Hi)
	case dataset.StrEq:
		return a.addStr(q.Attr, q.Val)
	case dataset.IsNull:
		_, err := a.addAttr(q.Attr)
		return err
	case dataset.And:
		for _, c := range q {
			if err := a.collect(c); err != nil {
				return err
			}
		}
		return nil
	case dataset.Or:
		for _, c := range q {
			if err := a.collect(c); err != nil {
				return err
			}
		}
		return nil
	case dataset.Not:
		return a.collect(q.P)
	case dataset.True:
		return nil
	default:
		bp, ok := p.(BreakpointProvider)
		if !ok {
			return fmt.Errorf("cannot introspect predicate type %T (implement workload.BreakpointProvider)", p)
		}
		a.opaque = true
		for attr, cs := range bp.Breakpoints() {
			for _, c := range cs {
				if err := a.addNum(attr, c); err != nil {
					return err
				}
			}
		}
		// Ensure all read attributes are registered even without breakpoints.
		for _, attr := range p.Attrs() {
			if _, err := a.addAttr(attr); err != nil {
				return err
			}
		}
		return nil
	}
}

// representatives returns the representative values for one attribute: a
// finite set of Values such that every predicate in the workload is
// constant between consecutive representatives.
func (a *atomAcc) representatives(attrPos int) []dataset.Value {
	attr := a.schema.Attr(attrPos)
	if attr.Kind == dataset.Categorical {
		out := make([]dataset.Value, 0, len(attr.Values)+1)
		for _, v := range attr.Values {
			out = append(out, dataset.Str(v))
		}
		out = append(out, dataset.Null)
		return out
	}
	// Continuous: breakpoints within [Min, Max] plus interval midpoints.
	pts := []float64{attr.Min, attr.Max}
	for c := range a.nums[attrPos] {
		if c >= attr.Min && c <= attr.Max {
			pts = append(pts, c)
		}
	}
	sort.Float64s(pts)
	pts = dedupFloats(pts)
	out := make([]dataset.Value, 0, 2*len(pts)+1)
	for i, p := range pts {
		out = append(out, dataset.Num(p))
		if i+1 < len(pts) {
			mid := p + (pts[i+1]-p)/2
			if mid > p && mid < pts[i+1] {
				out = append(out, dataset.Num(mid))
			}
		}
	}
	out = append(out, dataset.Null)
	return out
}

func dedupFloats(xs []float64) []float64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// --- predicate grouping (connected components over shared attributes) ---

func groupPredicates(s *dataset.Schema, preds []dataset.Predicate) [][]int {
	parent := make([]int, len(preds))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(x, y int) { parent[find(x)] = find(y) }

	attrOwner := make(map[string]int)
	for i, p := range preds {
		for _, a := range p.Attrs() {
			if prev, ok := attrOwner[a]; ok {
				union(i, prev)
			} else {
				attrOwner[a] = i
			}
		}
	}
	groups := make(map[int][]int)
	for i := range preds {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(groups))
	for _, r := range roots {
		g := groups[r]
		sort.Ints(g)
		out = append(out, g)
	}
	return out
}

func buildComponent(s *dataset.Schema, preds []dataset.Predicate, group []int, acc *atomAcc, maxCells int) (*component, bool, error) {
	c := &component{predIdx: group, sigToPart: make(map[string]int)}
	attrSet := make(map[int]struct{})
	for _, pi := range group {
		for _, a := range preds[pi].Attrs() {
			pos, ok := s.Lookup(a)
			if !ok {
				return nil, false, fmt.Errorf("workload: unknown attribute %q", a)
			}
			attrSet[pos] = struct{}{}
		}
	}
	for pos := range attrSet {
		c.attrs = append(c.attrs, pos)
	}
	sort.Ints(c.attrs)

	reps := make([][]dataset.Value, len(c.attrs))
	cells := 1
	for i, pos := range c.attrs {
		reps[i] = acc.representatives(pos)
		if cells > maxCells/len(reps[i])+1 {
			return nil, false, nil
		}
		cells *= len(reps[i])
		if cells > maxCells {
			return nil, false, nil
		}
	}

	// Enumerate the grid; the row template carries NULLs for attributes
	// outside the component (predicates never read them).
	row := make(dataset.Tuple, s.Arity())
	idx := make([]int, len(c.attrs))
	var sig strings.Builder
	for cell := 0; cell < cells; cell++ {
		for i, pos := range c.attrs {
			row[pos] = reps[i][idx[i]]
		}
		sig.Reset()
		sat := 0
		for _, pi := range c.predIdx {
			if preds[pi].Eval(s, row) {
				sig.WriteByte('1')
				sat++
			} else {
				sig.WriteByte('0')
			}
		}
		key := sig.String()
		if _, ok := c.sigToPart[key]; !ok {
			c.sigToPart[key] = len(c.partSigs)
			c.partSigs = append(c.partSigs, key)
		}
		if sat > c.maxSat {
			c.maxSat = sat
		}
		for i := len(idx) - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(reps[i]) {
				break
			}
			idx[i] = 0
		}
	}
	return c, true, nil
}

// SensitivityUpperBound returns a quick safe upper bound for ‖W‖₁ (the
// workload length), usable before transformation.
func SensitivityUpperBound(preds []dataset.Predicate) float64 {
	return float64(len(preds))
}

// MaxCount is a helper that returns max(counts) or 0.
func MaxCount(xs []float64) float64 {
	best := math.Inf(-1)
	for _, x := range xs {
		if x > best {
			best = x
		}
	}
	if math.IsInf(best, -1) {
		return 0
	}
	return best
}
