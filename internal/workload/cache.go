package workload

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"sync/atomic"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/memo"
)

// Key returns the canonical cache key of a workload: the rendered
// predicates joined with NUL. Predicates render deterministically, so two
// workloads with the same key are the same workload. The engine's
// transformation and answer caches and the server's shared per-dataset
// evaluation cache all key on it.
//
// The predicates render straight into one buffer
// (dataset.AppendPredicate), sized for 32 bytes a predicate, and the key
// shares its bytes as strings.Builder does — b is never written again —
// so a key costs one allocation unless a predicate renders long.
func Key(preds []dataset.Predicate) string {
	b := make([]byte, 0, 32*len(preds))
	for _, p := range preds {
		b = append(dataset.AppendPredicate(b, p), 0)
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
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
	schema  atomic.Pointer[dataset.Schema]
	entries *memo.Cache[string, *Transformed]
}

// transformCacheEntries bounds the distinct workloads one cache retains.
// A server-side cache lives as long as its dataset and any analyst can
// mint fresh workload keys by varying predicate constants, so past the
// bound the least recently used workload is dropped (Transformeds held by
// live engines stay valid; a later repeat just recomputes once).
const transformCacheEntries = 256

// NewTransformCache returns an empty cache applying opt to every
// transformation.
func NewTransformCache(opt Options) *TransformCache {
	return &TransformCache{opt: opt, entries: memo.New[string, *Transformed](transformCacheEntries)}
}

// Transform returns the cached T(W) for the workload preds, computing it
// at most once per key even under concurrent callers. key must be
// Key(preds): callers render it anyway, and rendering is the costly part
// of a hit, so it is rendered once. A cache is bound to the first schema
// it sees: scan kernels bake in attribute positions and category
// codes, so sharing one cache across schemas is a wiring bug and fails
// loudly instead of returning kernels for the wrong table layout.
func (c *TransformCache) Transform(s *dataset.Schema, key string, preds []dataset.Predicate) (*Transformed, error) {
	if c.schema.CompareAndSwap(nil, s); c.schema.Load() != s {
		return nil, fmt.Errorf("workload: TransformCache is bound to another schema (one cache per dataset; workload %v)", preds)
	}
	return c.entries.Get(key, func() (*Transformed, int64, error) {
		tr, err := Transform(s, preds, c.opt)
		if err == nil {
			tr.memo = memo.New[evalKey, []float64](evalMemoEntries)
		}
		return tr, 1, err
	})
}

// Len returns the number of cached workloads.
func (c *TransformCache) Len() int { return c.entries.Len() }

// Has reports whether the cache already holds the transformation of the
// workload with the given Key. It is advisory — a concurrent Transform
// can change the answer immediately — and exists for observability:
// request traces record it as the transform-cache hit/miss attribute.
func (c *TransformCache) Has(key string) bool {
	_, ok := c.entries.Peek(key)
	return ok
}

// Stats returns the counters of the workload cache (not of the
// Transformeds' evaluation memos).
func (c *TransformCache) Stats() memo.Stats { return c.entries.Stats() }

// evalKey names one memoized noise-free evaluation of a Transformed: the
// table, its size — appending to a table (the only mutation the Table API
// allows) changes it, so stale results are never served — and which of
// the two results.
type evalKey struct {
	t     *dataset.Table
	n     int
	truth bool
}

// evalMemoEntries bounds one Transformed's memoized evaluations; in
// practice a server evaluates one workload against one registered table
// (two entries), so the bound only guards pathological use.
const evalMemoEntries = 16

// memoized returns a copy of tr's memoized evaluation over d — the true
// answers or the histogram — running eval at most once per (table, size)
// across all concurrent sessions.
func (tr *Transformed) memoized(d *dataset.Table, truth bool, eval func() ([]float64, error)) ([]float64, error) {
	vals, err := tr.memo.Get(evalKey{d, d.Size(), truth}, func() ([]float64, int64, error) {
		vals, err := eval()
		return vals, 1, err
	})
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), vals...), nil
}
