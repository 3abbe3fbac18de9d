// Package translate is the shared, persistent, batch-vectorized
// Monte-Carlo translation plane behind the strategy mechanism (the
// paper's Algorithm 3 / estimateBeta).
//
// Translating a workload counting query to a privacy cost requires the
// distribution of the reconstruction error ‖W·A⁺·Lap(1)^l‖∞, which has
// no closed form; APEx estimates it from N sorted Monte-Carlo samples
// ("zs"). Those samples are a function of the query matrix W, the
// strategy and N only — not of the accuracy knobs (α, β), not of the
// asking session, and not of the predicate text W was derived from. So
// the plane keeps one plan per (matrix, strategy, N):
//
//   - Content-addressed: plans are keyed by the matrix fingerprint
//     (workload.Transformed.MatrixFingerprint: SHA-256 over dimensions
//     and bit-packed entries) × strategy × sample count, shared by every
//     session of a dataset. A histogram slid along its axis, a prefix
//     workload with a new origin, the same bins under an extra
//     categorical filter — fresh predicate text, same matrix — are all
//     hits. Each asker still extracts its own histogram from its own
//     predicates; the plan contributes only A, R and the samples.
//     Concurrent fresh askers singleflight: one pays the sampling, the
//     rest wait on the same entry.
//   - Vectorize: sampling draws the Laplace matrix block by block, each
//     block from its own canonically-derived stream (noise.SplitSeed),
//     and fans the blocks across GOMAXPROCS. Every matrix in a
//     TranslateBatch group with the same strategy shape shares the drawn
//     sample blocks — one sample matrix, many workloads — and the
//     per-sample dot products keep the exact accumulation order of the
//     sequential path, so results are bit-identical no matter how the
//     blocks were scheduled.
//   - Persist: computed plans are framed into a CRC-checksummed sidecar
//     file next to the dataset's catalog entry, written atomically and
//     reloaded on recovery, so a restart re-reads ~80 KB per matrix
//     instead of re-sampling — and serves predicate texts it has never
//     seen, as long as it has seen their matrix. A corrupt sidecar is
//     quarantined (renamed aside for the operator) and rebuilt from its
//     valid prefix.
//
// Seeds are canonical: the sampler's seed is a hash of (strategy, N,
// strategy-matrix rows), never of session state, cache arrival order or
// the workload. A matrix therefore translates to the bit-identical ε in
// any session, any process life, any translation order, through a shared
// or a private cache — the property the regression and differential
// tests pin down — and the same-shape matrices of a batch can share one
// sample matrix.
//
// Sharing plans is privacy-neutral: translation reads only the public
// schema and the workload, never the data, so a plan shared across
// workloads reveals nothing a per-workload plan did not.
package translate

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/memo"
	"repro/internal/noise"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// DefaultSamples mirrors the paper's N = 10000 (the strategy mechanism's
// default Monte-Carlo sample count).
const DefaultSamples = 10000

// sampleBlock is the sampling granularity: each block of samples is
// drawn from its own SplitSeed stream, making the full sample matrix a
// pure function of the canonical seed regardless of worker scheduling.
const sampleBlock = 256

// maxEntries bounds the distinct plans one cache retains, sidecar-loaded
// ones included (an analyst can still mint fresh matrices by varying the
// workload's length or shape; each plan holds N float64 samples). Past the
// bound the least recently used plan is dropped — plans held by in-flight
// queries stay valid, a later repeat recomputes once — and the next
// persist rewrites the sidecar to the plans retained.
const maxEntries = 256

// Plan is one query matrix's translation state: the sorted normalized
// error samples plus the scalars the ε binary search reads. The
// reconstruction matrices themselves are rebuilt lazily (Reconstruction)
// so a sidecar-loaded plan can serve translations in microseconds
// without paying the pseudoinverse until a mechanism actually runs. A
// plan holds the matrix it was built from, never the asking workload:
// every workload with that matrix shares it, pseudoinverse included.
type Plan struct {
	// Matrix is the content address of the query matrix
	// (workload.Transformed.MatrixFingerprint).
	Matrix workload.Fingerprint
	// Strategy is the strategy family name (strategy.Strategy.Name).
	Strategy string
	// Samples is the Monte-Carlo sample count N.
	Samples int
	// Seed is the canonical sampler seed (SampleSeed).
	Seed int64
	// SensA is ‖A‖₁, the strategy sensitivity.
	SensA float64
	// FrobR is ‖R‖_F, the Frobenius norm of the reconstruction matrix —
	// the Theorem A.1 upper bound for the ε search starts from it.
	FrobR float64
	// Zs are the N draws of ‖R·Lap(1)^l‖∞, sorted ascending.
	Zs []float64

	rows    int // strategy-matrix rows (the Laplace vector length)
	l, cols int // query-matrix shape

	// mat and strat are the query matrix W the plan serves and its
	// strategy; nil in a plan loaded from the sidecar until its first ask.
	mat     *linalg.Matrix
	strat   strategy.Strategy
	recOnce sync.Once
	rec     *strategy.Reconstruction
	recErr  error
}

// Reconstruction returns the plan's strategy reconstruction (A, R),
// building it on first use for plans that came back from a sidecar. A
// rebuilt reconstruction is fingerprint-checked against the persisted
// scalars; a mismatch (a stale sidecar from an incompatible code
// version) fails loudly rather than running a mechanism against samples
// it does not match.
func (p *Plan) Reconstruction() (*strategy.Reconstruction, error) {
	p.recOnce.Do(func() {
		if p.rec != nil {
			return
		}
		rec, err := strategy.NewReconstruction(p.mat, p.strat)
		if err != nil {
			p.recErr = fmt.Errorf("translate: rebuild reconstruction: %w", err)
			return
		}
		if rec.SensA != p.SensA || rec.A.Rows() != p.rows || rec.R.FrobeniusNorm() != p.FrobR {
			p.recErr = fmt.Errorf("translate: persisted plan does not match the reconstruction of its matrix (stale sidecar?)")
			return
		}
		p.rec = rec
	})
	return p.rec, p.recErr
}

// Item names one translation to warm: the workload's transformation plus
// the strategy shape it will be translated under.
type Item struct {
	Tr       *workload.Transformed
	Strategy strategy.Strategy
	Samples  int
}

// Source supplies translation plans. The strategy mechanism reads
// through one; Cache is the shared, persistent implementation.
type Source interface {
	// Plan returns (computing at most once per key across concurrent
	// callers) the translation plan for the workload's query matrix.
	Plan(tr *workload.Transformed, strat strategy.Strategy, samples int) (*Plan, error)
	// Ready reports whether any plan for the query matrix is already
	// available without sampling. Advisory, for observability.
	Ready(matrix workload.Fingerprint) bool
	// TranslateBatch warms the plans for a batch of workloads in one
	// fanned-out sampling pass, sharing drawn sample blocks across
	// same-shape workloads. It returns the number of freshly computed
	// plans; already-cached items cost nothing.
	TranslateBatch(items []Item) int
}

// planKey identifies one plan within a cache. The matrix fingerprint is
// its only workload component.
type planKey struct {
	matrix  workload.Fingerprint
	strat   string
	samples int
}

func keyOf(it Item) planKey {
	return planKey{matrix: it.Tr.MatrixFingerprint(), strat: it.Strategy.Name(), samples: it.Samples}
}

// Stats snapshots a cache's lifetime counters.
type Stats struct {
	// Hits counts requests whose plan the cache already held when a
	// scheduler warmed their translation (TranslateBatch, once per item):
	// computed earlier, in flight for another asker, or loaded from the
	// persisted sidecar. Plan, the lookup a mechanism repeats within a
	// request (Translate in Prepare, then Run), counts no hit, so a warmed
	// request counts one miss and no hit, or one hit.
	Hits int64
	// Misses counts fresh Monte-Carlo computations, wherever paid.
	Misses int64
	// Evictions counts plans dropped, least recently used first, to keep
	// maxEntries.
	Evictions int64
	// Loads counts plans loaded from the sidecar at recovery.
	Loads int64
	// Rebuilds counts corrupt sidecars quarantined and rebuilt.
	Rebuilds int64
	// PersistFailures counts sidecar writes that failed (the plan is
	// still served from memory; only restart cheapness is lost).
	PersistFailures int64
}

// Cache is the shared, persistent TranslationCache: one per dataset on
// the server (every session reads through it), or one private to a
// mechanism in library use. The zero path means memory-only.
type Cache struct {
	// mu orders claim passes and sidecar loads: the schema binding and a
	// loaded plan's replacement on first ask.
	mu     sync.Mutex
	schema *dataset.Schema
	plans  *memo.Cache[planKey, *Plan]

	path      string
	persistMu sync.Mutex

	hits, misses, loads, rebuilds, persistFails atomic.Int64
}

// NewCache returns an empty cache. A non-empty sidecarPath makes it
// persistent: computed plans are framed into that file (atomically,
// temp-and-rename) and LoadSidecar reads them back on recovery.
func NewCache(sidecarPath string) *Cache {
	return &Cache{plans: memo.New[planKey, *Plan](maxEntries), path: sidecarPath}
}

// Stats returns the cache's lifetime counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:            c.hits.Load(),
		Misses:          c.misses.Load(),
		Evictions:       c.plans.Stats().Evictions,
		Loads:           c.loads.Load(),
		Rebuilds:        c.rebuilds.Load(),
		PersistFailures: c.persistFails.Load(),
	}
}

// Len returns the number of resident plans: computed, in flight, or
// loaded from the sidecar.
func (c *Cache) Len() int { return c.plans.Len() }

// Ready implements Source by scanning the retained plans; only traced
// requests and EXPLAIN ask.
func (c *Cache) Ready(matrix workload.Fingerprint) bool {
	ready := false
	c.plans.Range(func(_ planKey, p *Plan) bool {
		ready = p.Matrix == matrix
		return !ready
	})
	return ready
}

// bindSchema enforces one cache per dataset: plans bake in the domain
// partitioning, so sharing a cache across schemas would serve plans for
// the wrong table layout. Caller holds c.mu.
func (c *Cache) bindSchema(s *dataset.Schema) error {
	if c.schema == nil {
		c.schema = s
		return nil
	}
	if c.schema != s {
		return errOtherSchema
	}
	return nil
}

var errOtherSchema = errors.New("translate: cache is bound to another schema (one translation cache per dataset)")

// Plan implements Source: the singleflight lookup-or-compute path, run
// as a batch of one. A fresh computation is one miss; finding an entry is
// not counted (see Stats.Hits).
func (c *Cache) Plan(tr *workload.Transformed, strat strategy.Strategy, samples int) (*Plan, error) {
	if !tr.Materialized() {
		return nil, fmt.Errorf("translate: workload transformation is implicit (no query matrix)")
	}
	ents, _, _ := c.translateBatch([]Item{{Tr: tr, Strategy: strat, Samples: samples}})
	if ents[0] == nil {
		// The matrix is materialized, so the batch skipped it for its schema.
		return nil, errOtherSchema
	}
	return ents[0].Wait()
}

// bind returns a sidecar-loaded plan attached to the asker's matrix and
// strategy, or nil when the frame's L or column count disagrees with that
// matrix. The fingerprint already commits to the matrix; re-checking the
// shape here (and SensA / rows / ‖R‖_F when the reconstruction is rebuilt)
// means a sidecar whose frames disagree with their own key is resampled
// over, never served.
func (p *Plan) bind(it Item) *Plan {
	mat := it.Tr.Matrix()
	if p.l != mat.Rows() || p.cols != mat.Cols() {
		return nil
	}
	return &Plan{Matrix: p.Matrix, Strategy: p.Strategy, Samples: p.Samples, Seed: p.Seed, SensA: p.SensA, FrobR: p.FrobR,
		Zs: p.Zs, rows: p.rows, l: p.l, cols: p.cols, mat: mat, strat: it.Strategy}
}

// newPlan assembles a freshly sampled plan; zs is sorted in place.
func newPlan(k planKey, it Item, rec *strategy.Reconstruction, seed int64, zs []float64) *Plan {
	sort.Float64s(zs)
	return &Plan{
		Matrix:   k.matrix,
		Strategy: k.strat,
		Samples:  k.samples,
		Seed:     seed,
		SensA:    rec.SensA,
		FrobR:    rec.R.FrobeniusNorm(),
		Zs:       zs,
		rows:     rec.A.Rows(),
		l:        it.Tr.Matrix().Rows(),
		cols:     it.Tr.Matrix().Cols(),
		mat:      it.Tr.Matrix(),
		strat:    it.Strategy,
		rec:      rec,
	}
}

// TranslateBatch implements Source: every fresh matrix in the batch is
// sampled in one fanned-out pass, with same-shape matrices (same
// strategy, N and strategy-matrix rows) sharing the drawn sample blocks.
// Items that differ only in predicate text dedupe to one claim. Each item
// counts one request: a miss when it claimed its plan, else a hit.
func (c *Cache) TranslateBatch(items []Item) int {
	ents, claimed, computed := c.translateBatch(items)
	found := -claimed
	for _, e := range ents {
		if e != nil {
			found++
		}
	}
	c.hits.Add(int64(found))
	return computed
}

// translateBatch is TranslateBatch returning, besides the number of plans
// computed, each item's entry (nil for an item with no query matrix or
// another schema's; possibly still in flight under another asker) and how
// many entries this call claimed.
func (c *Cache) translateBatch(items []Item) (ents []*memo.Entry[planKey, *Plan], claimed, computed int) {
	// Claim pass: skip cached (an item repeating an earlier one's matrix
	// finds that one's claim), bind loaded plans on their first ask, claim
	// the rest.
	type claim struct {
		k    planKey
		it   Item
		e    *memo.Entry[planKey, *Plan]
		rec  *strategy.Reconstruction
		seed int64
	}
	var claims []claim
	keys := make([]planKey, len(items))
	for i, it := range items {
		if it.Tr != nil && it.Tr.Materialized() {
			keys[i] = keyOf(it) // hashes a fresh matrix: keep it outside c.mu
		}
	}
	ents = make([]*memo.Entry[planKey, *Plan], len(items))
	c.mu.Lock()
	for i, it := range items {
		if it.Tr == nil || !it.Tr.Materialized() {
			continue
		}
		if err := c.bindSchema(it.Tr.Schema()); err != nil {
			continue // wrong wiring; Plan fails loudly
		}
		k := keys[i]
		var bound *Plan
		if p, ok := c.plans.Peek(k); ok && p != nil && p.mat == nil {
			// A loaded plan's first ask replaces it with one bound to the
			// asker's matrix — or, failing the shape check, a resampled one.
			c.plans.Forget(k)
			bound = p.bind(it)
		}
		e, fresh := c.plans.Claim(k)
		switch {
		case fresh && bound != nil:
			c.plans.Finish(e, bound, 1, nil)
		case fresh:
			claims = append(claims, claim{k: k, it: it, e: e})
		}
		ents[i] = e
	}
	c.mu.Unlock()
	if len(claims) == 0 {
		return ents, 0, 0
	}
	c.misses.Add(int64(len(claims)))

	// Reconstruction pass: the pseudoinverses, fanned across CPUs.
	var wg sync.WaitGroup
	sem := make(chan struct{}, max(1, runtime.GOMAXPROCS(0)))
	errs := make([]error, len(claims))
	for i := range claims {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			cl := &claims[i]
			rec, err := strategy.NewReconstruction(cl.it.Tr.Matrix(), cl.it.Strategy)
			if err != nil {
				errs[i] = fmt.Errorf("translate: %w", err)
				return
			}
			cl.rec = rec
			cl.seed = SampleSeed(cl.k.strat, cl.k.samples, rec.A.Rows())
		}(i)
	}
	wg.Wait()

	// Sampling pass: group by shape so one sample matrix serves every
	// workload in the group, then finish each claimed entry.
	type shape struct {
		strat   string
		samples int
		rows    int
	}
	groups := make(map[shape][]*claim)
	for i := range claims {
		cl := &claims[i]
		if errs[i] != nil {
			c.plans.Finish(cl.e, nil, 1, errs[i])
			continue
		}
		sh := shape{strat: cl.k.strat, samples: cl.k.samples, rows: cl.rec.A.Rows()}
		groups[sh] = append(groups[sh], cl)
	}
	for sh, g := range groups {
		rs := make([]*linalg.Matrix, len(g))
		for i, cl := range g {
			rs[i] = cl.rec.R
		}
		zss := sampleNorms(rs, sh.rows, sh.samples, g[0].seed)
		for i, cl := range g {
			c.plans.Finish(cl.e, newPlan(cl.k, cl.it, cl.rec, cl.seed, zss[i]), 1, nil)
			computed++
		}
	}
	if computed > 0 {
		c.persist()
	}
	return ents, len(claims), computed
}

// SampleSeed derives the canonical Monte-Carlo seed for a strategy shape:
// a hash of (strategy name, sample count, strategy-matrix rows). It is
// deliberately independent of the asking session, of translation arrival
// order, and of the workload (see the package comment), so the same
// matrix always sees the same samples and same-shape matrices can share
// one sample matrix.
func SampleSeed(strat string, samples, rows int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "apex/translate/v1\x00%s\x00%d\x00%d", strat, samples, rows)
	return int64(h.Sum64())
}

// sampleNorms draws n normalized error samples for every reconstruction
// matrix in rs (all with rows columns = the Laplace vector length l):
// zs[w][i] = ‖rs[w]·Lap(1)^l‖∞. Samples are drawn in blocks, each block
// from its own SplitSeed(seed, block) stream, and the blocks are fanned
// across GOMAXPROCS — so the result is a pure function of (rs, n, seed),
// bit-identical to a sequential evaluation, while every matrix in the
// group reuses each drawn Laplace vector (one sample matrix, many
// workloads).
func sampleNorms(rs []*linalg.Matrix, rows, n int, seed int64) [][]float64 {
	out := make([][]float64, len(rs))
	for i := range out {
		out[i] = make([]float64, n)
	}
	if n == 0 || len(rs) == 0 {
		return out
	}
	blocks := (n + sampleBlock - 1) / sampleBlock
	run := func(b int) {
		rng := noise.NewRand(noise.SplitSeed(seed, int64(b)))
		eta := make([]float64, rows)
		lo := b * sampleBlock
		hi := min(lo+sampleBlock, n)
		for i := lo; i < hi; i++ {
			noise.LaplaceVecInto(rng, 1, eta)
			for w, r := range rs {
				z, err := r.MulVecLInf(eta)
				if err != nil {
					// Shapes are fixed by the caller's grouping; a
					// mismatch is a programming error.
					panic(fmt.Sprintf("translate: sample norm: %v", err))
				}
				out[w][i] = z
			}
		}
	}
	if nw := min(runtime.GOMAXPROCS(0), blocks); nw > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					b := int(next.Add(1)) - 1
					if b >= blocks {
						return
					}
					run(b)
				}
			}()
		}
		wg.Wait()
	} else {
		for b := 0; b < blocks; b++ {
			run(b)
		}
	}
	return out
}
