package workload

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
)

// Key returns the canonical cache key of a workload: the rendered
// predicates joined with NUL. Predicates render deterministically, so two
// workloads with the same key are the same workload. The engine's
// transformation and answer caches and the server's shared per-dataset
// evaluation cache all key on it.
func Key(preds []dataset.Predicate) string {
	var sb strings.Builder
	for _, p := range preds {
		sb.WriteString(p.String())
		sb.WriteByte(0)
	}
	return sb.String()
}

// ID folds a canonical Key (arbitrarily long) into a short stable
// identifier usable as a trace tag, sketch key and metric-safe string.
// The engine stamps it on every request trace so the analytics plane can
// attribute cost per workload without re-rendering the predicates.
func ID(key string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return "w" + strconv.FormatUint(h.Sum64(), 16)
}

// TransformCache is a thread-safe cache of workload transformations,
// keyed by Key. Transformeds it hands out additionally memoize their
// noise-free Histogram/TrueAnswers per table, with concurrent callers of
// the same (workload, table) pair sharing one computation — so N analyst
// sessions asking the same workload over the same dataset cost one data
// scan, not N.
//
// Sharing noise-free evaluations is privacy-neutral: they never leave the
// process, and every mechanism adds its own per-session noise on top
// before anything reaches an analyst.
type TransformCache struct {
	opt     Options
	mu      sync.Mutex
	entries map[string]*transformEntry
}

type transformEntry struct {
	schema *dataset.Schema
	once   sync.Once
	tr     *Transformed
	err    error
}

// transformCacheMaxEntries bounds the distinct workloads one cache
// retains. A server-side cache lives as long as its dataset and any
// analyst can mint fresh workload keys by varying predicate constants,
// so reaching the bound drops the map wholesale (Transformeds held by
// live engines stay valid; subsequent repeats just recompute once).
const transformCacheMaxEntries = 256

// NewTransformCache returns an empty cache applying opt to every
// transformation.
func NewTransformCache(opt Options) *TransformCache {
	return &TransformCache{opt: opt, entries: make(map[string]*transformEntry)}
}

// Transform returns the cached T(W) for the workload, computing it at
// most once per key even under concurrent callers. A cache is bound to
// the first schema it sees: compiled kernels bake in attribute positions
// and category codes, so sharing one cache across schemas is a wiring
// bug and fails loudly instead of returning kernels for the wrong table
// layout.
func (c *TransformCache) Transform(s *dataset.Schema, preds []dataset.Predicate) (*Transformed, error) {
	key := Key(preds)
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		if len(c.entries) >= transformCacheMaxEntries {
			c.entries = make(map[string]*transformEntry)
		}
		e = &transformEntry{schema: s}
		c.entries[key] = e
	}
	c.mu.Unlock()
	if e.schema != s {
		return nil, fmt.Errorf("workload: TransformCache is bound to another schema (one cache per dataset; workload %v)", preds)
	}
	e.once.Do(func() {
		e.tr, e.err = Transform(s, preds, c.opt)
		if e.err == nil {
			e.tr.memo = &evalMemo{}
		}
	})
	return e.tr, e.err
}

// Len returns the number of cached workloads.
func (c *TransformCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Has reports whether the cache already holds (or is computing) the
// workload with the given Key. It is advisory — a concurrent Transform
// can change the answer immediately — and exists for observability:
// request traces record it as the transform-cache hit/miss attribute.
func (c *TransformCache) Has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// evalMemo caches a Transformed's noise-free evaluations per table. The
// key includes the table size so appending to a table (the only mutation
// the Table API allows) naturally invalidates stale entries.
type evalMemo struct {
	mu    sync.Mutex
	hist  map[memoKey]*memoEntry
	truth map[memoKey]*memoEntry
}

type memoKey struct {
	t *dataset.Table
	n int
}

type memoEntry struct {
	once sync.Once
	done atomic.Bool // set once vals/err are final; lets batchers peek
	vals []float64
	err  error
}

// compute runs fn at most once and marks the entry ready.
func (e *memoEntry) compute(fn func() ([]float64, error)) {
	e.once.Do(func() {
		e.vals, e.err = fn()
		e.done.Store(true)
	})
}

// memoMaxTables bounds each memo map; in practice a server evaluates one
// workload against one registered table, so the bound only guards
// pathological use.
const memoMaxTables = 8

func (m *evalMemo) get(mp *map[memoKey]*memoEntry, d *dataset.Table) *memoEntry {
	k := memoKey{t: d, n: d.Size()}
	m.mu.Lock()
	defer m.mu.Unlock()
	if *mp == nil {
		*mp = make(map[memoKey]*memoEntry)
	}
	if e, ok := (*mp)[k]; ok {
		return e
	}
	if len(*mp) >= memoMaxTables {
		*mp = make(map[memoKey]*memoEntry)
	}
	e := &memoEntry{}
	(*mp)[k] = e
	return e
}

// ready reports whether the memoized value for d is already final in mp,
// without creating an entry. Batchers use it to skip work another batch
// (or an unbatched evaluation) has done.
func (m *evalMemo) ready(mp *map[memoKey]*memoEntry, d *dataset.Table) bool {
	k := memoKey{t: d, n: d.Size()}
	m.mu.Lock()
	e, ok := (*mp)[k]
	m.mu.Unlock()
	return ok && e.done.Load()
}

// histogram returns a copy of the memoized x = T_W(D), computing it once
// per (workload, table) across all concurrent sessions.
func (m *evalMemo) histogram(tr *Transformed, d *dataset.Table) ([]float64, error) {
	e := m.get(&m.hist, d)
	e.compute(func() ([]float64, error) { return tr.histogram(d) })
	if e.err != nil {
		return nil, e.err
	}
	return append([]float64(nil), e.vals...), nil
}

// trueAnswers returns a copy of the memoized exact workload answers.
func (m *evalMemo) trueAnswers(tr *Transformed, d *dataset.Table) []float64 {
	e := m.get(&m.truth, d)
	e.compute(func() ([]float64, error) { return tr.trueAnswers(d), nil })
	return append([]float64(nil), e.vals...)
}
