package translate

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/durable"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// fixture holds one schema and a helper to transform histogram workloads
// over it. All workloads from one fixture share the schema pointer, as
// the server's per-dataset wiring guarantees.
type fixture struct {
	schema *dataset.Schema
}

func newFixture(t *testing.T, domain float64) *fixture {
	t.Helper()
	s := dataset.MustSchema(
		dataset.Attribute{Name: "v", Kind: dataset.Continuous, Min: 0, Max: domain},
	)
	return &fixture{schema: s}
}

func (f *fixture) transform(t *testing.T, preds []dataset.Predicate, err error) *workload.Transformed {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Transform(f.schema, preds, workload.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// histogram transforms a bins-bucket histogram workload over [0, bins·width).
func (f *fixture) histogram(t *testing.T, bins int, width float64) *workload.Transformed {
	t.Helper()
	return f.histogramAt(t, 0, bins, width)
}

// histogramAt is histogram with the first bin starting at lo.
func (f *fixture) histogramAt(t *testing.T, lo float64, bins int, width float64) *workload.Transformed {
	t.Helper()
	preds, err := workload.Histogram1D("v", lo, lo+width*float64(bins), width)
	return f.transform(t, preds, err)
}

// prefix transforms a prefix-sums workload (sensitivity L under identity).
func (f *fixture) prefix(t *testing.T, bins int, width float64) *workload.Transformed {
	t.Helper()
	preds, err := workload.Prefix1D("v", 0, width*float64(bins), width)
	return f.transform(t, preds, err)
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] { // bit-identical, not approximately equal
			return false
		}
	}
	return true
}

// TestPlanDeterministicAcrossCaches: two independent caches (two "process
// lives") must compute bit-identical samples for the same workload.
func TestPlanDeterministicAcrossCaches(t *testing.T) {
	f := newFixture(t, 80)
	p1, err := NewCache("").Plan(f.histogram(t, 8, 10), strategy.H2, 500)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewCache("").Plan(f.histogram(t, 8, 10), strategy.H2, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFloats(p1.Zs, p2.Zs) {
		t.Fatal("same workload, fresh caches: samples must be bit-identical")
	}
	if p1.Seed != p2.Seed || p1.SensA != p2.SensA || p1.FrobR != p2.FrobR {
		t.Fatalf("plan scalars diverged: %+v vs %+v", p1, p2)
	}
}

// TestPlanOrderIndependent: the samples a workload sees must not depend
// on how many plans the cache computed before it (the old sampler seeded
// with len(cache)+1 and broke exactly this).
func TestPlanOrderIndependent(t *testing.T) {
	f := newFixture(t, 80)
	mk := func() (*workload.Transformed, *workload.Transformed) {
		return f.histogram(t, 8, 10), f.prefix(t, 8, 10)
	}

	cAB := NewCache("")
	h1, p1 := mk()
	planA1, err := cAB.Plan(h1, strategy.H2, 400)
	if err != nil {
		t.Fatal(err)
	}
	planB1, err := cAB.Plan(p1, strategy.H2, 400)
	if err != nil {
		t.Fatal(err)
	}

	cBA := NewCache("")
	h2, p2 := mk()
	planB2, err := cBA.Plan(p2, strategy.H2, 400)
	if err != nil {
		t.Fatal(err)
	}
	planA2, err := cBA.Plan(h2, strategy.H2, 400)
	if err != nil {
		t.Fatal(err)
	}

	if !sameFloats(planA1.Zs, planA2.Zs) {
		t.Fatal("histogram samples depend on translation order")
	}
	if !sameFloats(planB1.Zs, planB2.Zs) {
		t.Fatal("prefix samples depend on translation order")
	}
}

// TestBatchMatchesSolo: a batch-vectorized translation (one shared sample
// matrix for the group) must be bit-identical to translating each
// workload alone in a fresh cache.
func TestBatchMatchesSolo(t *testing.T) {
	f := newFixture(t, 80)
	hist := f.histogram(t, 8, 10)
	pref := f.prefix(t, 8, 10)

	batch := NewCache("")
	// Same strategy shape (H2 over 8 partitions): one sample matrix for both.
	n := batch.TranslateBatch([]Item{
		{Tr: hist, Strategy: strategy.H2, Samples: 300},
		{Tr: pref, Strategy: strategy.H2, Samples: 300},
	})
	if n != 2 {
		t.Fatalf("TranslateBatch computed %d plans, want 2", n)
	}
	bh, err := batch.Plan(hist, strategy.H2, 300)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := batch.Plan(pref, strategy.H2, 300)
	if err != nil {
		t.Fatal(err)
	}
	if got := batch.Stats(); got.Misses != 2 || got.Hits != 0 {
		t.Fatalf("stats after batch+2 asks: %+v, want 2 misses and no hit (Plan counts none)", got)
	}

	sh, err := NewCache("").Plan(f.histogram(t, 8, 10), strategy.H2, 300)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewCache("").Plan(f.prefix(t, 8, 10), strategy.H2, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFloats(bh.Zs, sh.Zs) {
		t.Fatal("batched histogram samples differ from the solo path")
	}
	if !sameFloats(bp.Zs, sp.Zs) {
		t.Fatal("batched prefix samples differ from the solo path")
	}

	// Re-batching is free: everything is cached.
	if n := batch.TranslateBatch([]Item{
		{Tr: hist, Strategy: strategy.H2, Samples: 300},
		{Tr: pref, Strategy: strategy.H2, Samples: 300},
	}); n != 0 {
		t.Fatalf("second TranslateBatch computed %d plans, want 0", n)
	}
	if got := batch.Stats(); got.Misses != 2 || got.Hits != 2 {
		t.Fatalf("stats after the second batch: %+v, want 2 misses 2 hits", got)
	}
}

// TestSingleflight: concurrent askers of one fresh workload must share a
// single Monte-Carlo computation. (Plan is a mechanism's lookup within a
// request: it counts the computation and no hit.)
func TestSingleflight(t *testing.T) {
	f := newFixture(t, 80)
	tr := f.histogram(t, 8, 10)
	c := NewCache("")

	const askers = 16
	plans := make([]*Plan, askers)
	var wg sync.WaitGroup
	for i := 0; i < askers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.Plan(tr, strategy.H2, 1000)
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = p
		}(i)
	}
	wg.Wait()

	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("%d askers paid %d computations, want 1", askers, st.Misses)
	}
	if st.Hits != 0 {
		t.Fatalf("hits = %d, want 0", st.Hits)
	}
	for i := 1; i < askers; i++ {
		if plans[i] != plans[0] {
			t.Fatal("askers must share one plan instance")
		}
	}
}

// TestSidecarRoundtrip: persist, reload in a fresh cache, serve the plan
// bit-identically — and the lazily rebuilt reconstruction must pass its
// fingerprint check.
func TestSidecarRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "translate.tc")
	f := newFixture(t, 80)

	c1 := NewCache(path)
	orig, err := c1.Plan(f.histogram(t, 8, 10), strategy.H2, 600)
	if err != nil {
		t.Fatal(err)
	}

	c2 := NewCache(path)
	loaded, quarantined, err := c2.LoadSidecar()
	if err != nil {
		t.Fatal(err)
	}
	if quarantined != "" {
		t.Fatalf("healthy sidecar quarantined: %s", quarantined)
	}
	if loaded != 1 {
		t.Fatalf("loaded %d plans, want 1", loaded)
	}
	tr := f.histogram(t, 8, 10)
	if n := c2.TranslateBatch([]Item{{Tr: tr, Strategy: strategy.H2, Samples: 600}}); n != 0 {
		t.Fatalf("warming a loaded plan computed %d plans", n)
	}
	got, err := c2.Plan(tr, strategy.H2, 600)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFloats(got.Zs, orig.Zs) {
		t.Fatal("sidecar-loaded samples differ from the computed ones")
	}
	if got.Seed != orig.Seed || got.SensA != orig.SensA || got.FrobR != orig.FrobR {
		t.Fatal("sidecar-loaded scalars differ from the computed ones")
	}
	st := c2.Stats()
	if st.Misses != 0 || st.Hits != 1 || st.Loads != 1 {
		t.Fatalf("stats after sidecar serve: %+v, want 0 misses 1 hit 1 load", st)
	}
	if _, err := got.Reconstruction(); err != nil {
		t.Fatalf("rebuilt reconstruction failed its fingerprint check: %v", err)
	}
}

// TestSidecarCorruptionQuarantinesAndRebuilds: a bit flip in the last
// frame must keep the valid prefix, rename the damaged file aside, and
// rewrite a clean sidecar.
func TestSidecarCorruptionQuarantinesAndRebuilds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "translate.tc")
	f := newFixture(t, 80)

	hist := f.histogram(t, 4, 10)
	pref := f.prefix(t, 4, 10)
	c1 := NewCache(path)
	origHist, err := c1.Plan(hist, strategy.H2, 200)
	if err != nil {
		t.Fatal(err)
	}
	origPref, err := c1.Plan(pref, strategy.H2, 200)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one bit inside the last frame's sample block; the first frame
	// (whichever plan sorts first in the file) stays valid.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-9] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := NewCache(path)
	loaded, quarantined, err := c2.LoadSidecar()
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 1 {
		t.Fatalf("loaded %d plans from the valid prefix, want 1", loaded)
	}
	if quarantined == "" {
		t.Fatal("corrupt sidecar was not quarantined")
	}
	if _, err := os.Stat(quarantined); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if st := c2.Stats(); st.Rebuilds != 1 {
		t.Fatalf("rebuilds = %d, want 1", st.Rebuilds)
	}

	// The rebuilt sidecar is clean and holds exactly the valid prefix.
	c3 := NewCache(path)
	loaded, quarantined, err = c3.LoadSidecar()
	if err != nil {
		t.Fatal(err)
	}
	if quarantined != "" || loaded != 1 {
		t.Fatalf("rebuilt sidecar: loaded=%d quarantined=%q, want 1 clean plan", loaded, quarantined)
	}

	// The surviving plan serves without resampling; the damaged one is
	// recomputed to bit-identical samples (canonical seeds).
	survivor, origSurvivor := hist, origHist
	if !c2.Ready(hist.MatrixFingerprint()) {
		survivor, origSurvivor = pref, origPref
	}
	got, err := c2.Plan(survivor, strategy.H2, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFloats(got.Zs, origSurvivor.Zs) {
		t.Fatal("surviving plan's samples changed across quarantine")
	}
	if st := c2.Stats(); st.Misses != 0 {
		t.Fatalf("surviving plan was recomputed (misses=%d)", st.Misses)
	}
	victim, origVictim := pref, origPref
	if survivor == pref {
		victim, origVictim = hist, origHist
	}
	regot, err := c2.Plan(victim, strategy.H2, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFloats(regot.Zs, origVictim.Zs) {
		t.Fatal("recomputed plan's samples differ from the pre-corruption ones")
	}
}

// TestReady tracks the advisory availability probe through the plan
// lifecycle: absent → computed → sidecar-loaded.
func TestReady(t *testing.T) {
	path := filepath.Join(t.TempDir(), "translate.tc")
	f := newFixture(t, 80)
	tr := f.histogram(t, 8, 10)

	c := NewCache(path)
	if c.Ready(tr.MatrixFingerprint()) {
		t.Fatal("empty cache reports ready")
	}
	if _, err := c.Plan(tr, strategy.H2, 100); err != nil {
		t.Fatal(err)
	}
	if !c.Ready(tr.MatrixFingerprint()) {
		t.Fatal("computed plan not reported ready")
	}

	c2 := NewCache(path)
	if _, _, err := c2.LoadSidecar(); err != nil {
		t.Fatal(err)
	}
	if !c2.Ready(tr.MatrixFingerprint()) {
		t.Fatal("sidecar-loaded plan not reported ready")
	}
}

// distinctMatrix transforms the i-th of 1023 workloads with distinct query
// matrices: ten fixed bins plus one row OR-ing the subset of bins named by
// the bits of i+1. Fresh constants no longer mint fresh plans; fresh
// matrices do.
func (f *fixture) distinctMatrix(t *testing.T, i int) *workload.Transformed {
	t.Helper()
	preds, err := workload.Histogram1D("v", 5, 95, 9)
	var or dataset.Or
	for b := 0; b < 10; b++ {
		if (i+1)&(1<<b) != 0 {
			or = append(or, preds[b])
		}
	}
	return f.transform(t, append(preds, or), err)
}

// TestCacheCapEvictsLeastRecentlyUsed: crossing maxEntries drops the least
// recently used plan, one at a time, rather than growing without bound or
// dropping the cache wholesale.
func TestCacheCapEvictsLeastRecentlyUsed(t *testing.T) {
	f := newFixture(t, 100)
	c := NewCache("")
	ask := func(i int) {
		t.Helper()
		if _, err := c.Plan(f.distinctMatrix(t, i), strategy.Identity{}, 8); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < maxEntries+1; i++ {
		ask(i)
	}
	if st := c.Stats(); st.Misses != maxEntries+1 || st.Evictions != 1 {
		t.Fatalf("%d distinct matrices: %+v, want %d samplings and 1 eviction", maxEntries+1, st, maxEntries+1)
	}
	if n := c.Len(); n != maxEntries {
		t.Fatalf("cache holds %d entries, want the bound %d", n, maxEntries)
	}
	ask(maxEntries)
	if st := c.Stats(); st.Misses != maxEntries+1 {
		t.Fatalf("re-asking the newest matrix resampled (misses %d)", st.Misses)
	}
	ask(0)
	if st := c.Stats(); st.Misses != maxEntries+2 {
		t.Fatalf("re-asking the evicted first matrix did not resample (misses %d)", st.Misses)
	}
}

// TestSidecarBoundedAcrossLives: plans loaded from the sidecar share the
// one bounded map with computed ones, so the file stays within maxEntries
// frames however many lives append to it, and a plan asked in this life
// outlives one that was loaded and never asked.
func TestSidecarBoundedAcrossLives(t *testing.T) {
	path := filepath.Join(t.TempDir(), "translate.tc")
	f := newFixture(t, 100)
	const perLife = 200
	for life := 0; life < 3; life++ {
		c := NewCache(path)
		loaded, _, err := c.LoadSidecar()
		if err != nil {
			t.Fatal(err)
		}
		items := make([]Item, perLife)
		for i := range items {
			items[i] = Item{Tr: f.distinctMatrix(t, life*perLife+i), Strategy: strategy.Identity{}, Samples: 8}
		}
		if n := c.TranslateBatch(items); n != perLife {
			t.Fatalf("life %d: computed %d plans, want %d", life, n, perLife)
		}
		frames, corrupt, err := VerifySidecar(path)
		if err != nil || corrupt || frames != min((life+1)*perLife, maxEntries) {
			t.Fatalf("life %d: sidecar holds %d frames (corrupt %v, err %v), want %d", life, frames, corrupt, err, min((life+1)*perLife, maxEntries))
		}
		// Every eviction fell on a loaded plan: this life's all survive.
		if got, want := c.Stats().Evictions, int64(max(0, loaded+perLife-maxEntries)); got != want {
			t.Fatalf("life %d: %d evictions, want %d", life, got, want)
		}
		for _, it := range items {
			if !c.Ready(it.Tr.MatrixFingerprint()) {
				t.Fatalf("life %d: a plan asked in this life was dropped", life)
			}
		}
	}
}

// TestSchemaBinding: one cache serves one dataset; a workload from a
// different schema is refused.
func TestSchemaBinding(t *testing.T) {
	f1 := newFixture(t, 80)
	f2 := newFixture(t, 80)
	c := NewCache("")
	if _, err := c.Plan(f1.histogram(t, 4, 10), strategy.H2, 50); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Plan(f2.histogram(t, 4, 10), strategy.H2, 50); err == nil {
		t.Fatal("cache accepted a workload from a foreign schema")
	}
}

// TestImplicitWorkloadRefused: plans need the materialized query matrix.
func TestImplicitWorkloadRefused(t *testing.T) {
	attrs := make([]dataset.Attribute, 30)
	preds := make([]dataset.Predicate, 30)
	for i := range attrs {
		name := fmt.Sprintf("a%02d", i)
		attrs[i] = dataset.Attribute{Name: name, Kind: dataset.Continuous, Min: 0, Max: 1}
		preds[i] = dataset.NumCmp{Attr: name, Op: dataset.Gt, C: 0.5}
	}
	s := dataset.MustSchema(attrs...)
	tr, err := workload.Transform(s, preds, workload.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Materialized() {
		t.Fatal("fixture should be implicit")
	}
	if _, err := NewCache("").Plan(tr, strategy.H2, 50); err == nil {
		t.Fatal("implicit workload must be refused")
	}
}

// TestSampleSeedCanonical pins the seed derivation: shape-dependent,
// workload- and order-independent.
func TestSampleSeedCanonical(t *testing.T) {
	a := SampleSeed("h2", 1000, 15)
	if b := SampleSeed("h2", 1000, 15); a != b {
		t.Fatal("seed is not a pure function of its inputs")
	}
	if b := SampleSeed("identity", 1000, 15); a == b {
		t.Fatal("seed ignores the strategy")
	}
	if b := SampleSeed("h2", 2000, 15); a == b {
		t.Fatal("seed ignores the sample count")
	}
	if b := SampleSeed("h2", 1000, 31); a == b {
		t.Fatal("seed ignores the matrix rows")
	}
}

// TestFreshConstantsShareOnePlan: workloads that differ only in their
// predicate constants have one query matrix, so the cache computes one
// plan and hands every asker the same instance — solo or batched.
func TestFreshConstantsShareOnePlan(t *testing.T) {
	f := newFixture(t, 1000)
	c := NewCache("")
	first, err := c.Plan(f.histogramAt(t, 10, 8, 10), strategy.H2, 300)
	if err != nil {
		t.Fatal(err)
	}
	var items []Item
	for i := 1; i <= 20; i++ {
		// Slide the origin and stretch the bins: new text every time.
		tr := f.histogramAt(t, 10+float64(i)/8, 8, 10+float64(i))
		if tr.MatrixFingerprint() != first.Matrix {
			t.Fatalf("shifted histogram %d has a different matrix fingerprint", i)
		}
		p, err := c.Plan(tr, strategy.H2, 300)
		if err != nil {
			t.Fatal(err)
		}
		if p != first {
			t.Fatalf("shifted histogram %d got its own plan", i)
		}
		items = append(items, Item{Tr: f.histogramAt(t, 200+float64(i), 8, 3), Strategy: strategy.H2, Samples: 300})
	}
	if n := c.TranslateBatch(items); n != 0 {
		t.Fatalf("batch of known-matrix workloads computed %d plans, want 0", n)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 20 {
		t.Fatalf("stats: %+v, want 1 miss and the batch's 20 hits", st)
	}
	// The shared plan matches what a private cache computes for any one
	// of the workloads: sharing changes who pays, not what is computed.
	solo, err := NewCache("").Plan(f.histogramAt(t, 300, 8, 7), strategy.H2, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFloats(solo.Zs, first.Zs) || solo.SensA != first.SensA || solo.FrobR != first.FrobR {
		t.Fatal("shared plan differs from a private cache's plan for the same matrix")
	}

	// A cold batch of same-matrix items dedupes to a single claim.
	cold := NewCache("")
	if n := cold.TranslateBatch(items); n != 1 {
		t.Fatalf("cold batch of one matrix computed %d plans, want 1", n)
	}
}

// TestDistinctMatricesDoNotShare: another L, or the same L with the
// origin on the domain minimum (no leading "below the bins" partition, so
// the column order changes), is another matrix and another plan.
func TestDistinctMatricesDoNotShare(t *testing.T) {
	f := newFixture(t, 1000)
	base := f.histogramAt(t, 10, 8, 10)
	otherL := f.histogramAt(t, 10, 9, 10)
	atMin := f.histogramAt(t, 0, 8, 10)
	if base.MatrixFingerprint() == otherL.MatrixFingerprint() {
		t.Fatal("8-bin and 9-bin histograms share a fingerprint")
	}
	if base.MatrixFingerprint() == atMin.MatrixFingerprint() {
		t.Fatal("origin on the domain minimum must change the matrix")
	}
	c := NewCache("")
	plans := map[*Plan]bool{}
	for _, tr := range []*workload.Transformed{base, otherL, atMin} {
		p, err := c.Plan(tr, strategy.H2, 100)
		if err != nil {
			t.Fatal(err)
		}
		plans[p] = true
		if !c.Ready(tr.MatrixFingerprint()) {
			t.Fatal("computed matrix not ready")
		}
	}
	if st := c.Stats(); len(plans) != 3 || st.Misses != 3 {
		t.Fatalf("3 distinct matrices: %d plans, stats %+v", len(plans), st)
	}
	// Same matrix under another strategy or N is another plan too.
	if _, err := c.Plan(base, strategy.Identity{}, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Plan(base, strategy.H2, 101); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 5 {
		t.Fatalf("strategy/N variants: misses = %d, want 5", st.Misses)
	}
}

// rewriteSidecar decodes the sidecar at path, lets edit tamper with its
// single plan, and writes it back with valid framing — a file whose CRCs
// hold but whose content disagrees with its own key.
func rewriteSidecar(t *testing.T, path string, edit func(*Plan)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	plans, corrupt := decodeSidecar(data)
	if corrupt || len(plans) != 1 {
		t.Fatalf("fixture sidecar: %d plans, corrupt=%v", len(plans), corrupt)
	}
	edit(plans[0])
	buf := binary.LittleEndian.AppendUint32([]byte(sidecarMagic), sidecarVersion)
	if err := os.WriteFile(path, encodeStoredPlan(buf, plans[0]), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPromotionRechecksShape: a sidecar frame filed under the right
// fingerprint but carrying another matrix's shape is never served — L and
// the column count are re-checked at promotion (→ resample), SensA, the
// strategy rows and ‖R‖_F when the reconstruction is rebuilt (→ error).
func TestPromotionRechecksShape(t *testing.T) {
	f := newFixture(t, 1000)
	for _, tc := range []struct {
		name   string
		edit   func(*Plan)
		misses int64 // samplings the second life pays
		recErr bool
	}{
		{"intact", func(*Plan) {}, 0, false},
		{"wrong L", func(p *Plan) { p.l++ }, 1, false},
		{"wrong columns", func(p *Plan) { p.cols-- }, 1, false},
		{"wrong SensA", func(p *Plan) { p.SensA++ }, 0, true},
		{"wrong rows", func(p *Plan) { p.rows++ }, 0, true},
		{"wrong FrobR", func(p *Plan) { p.FrobR *= 2 }, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "translate.tc")
			orig, err := NewCache(path).Plan(f.histogramAt(t, 10, 8, 10), strategy.H2, 100)
			if err != nil {
				t.Fatal(err)
			}
			rewriteSidecar(t, path, tc.edit)

			c := NewCache(path)
			if n, q, err := c.LoadSidecar(); n != 1 || q != "" || err != nil {
				t.Fatalf("load: n=%d quarantined=%q err=%v", n, q, err)
			}
			// A never-seen text of the known matrix asks.
			p, err := c.Plan(f.histogramAt(t, 33, 8, 4), strategy.H2, 100)
			if err != nil {
				t.Fatal(err)
			}
			if st := c.Stats(); st.Misses != tc.misses {
				t.Fatalf("misses = %d, want %d", st.Misses, tc.misses)
			}
			_, err = p.Reconstruction()
			if (err != nil) != tc.recErr {
				t.Fatalf("Reconstruction error = %v, want error: %v", err, tc.recErr)
			}
			if !tc.recErr && (!sameFloats(p.Zs, orig.Zs) || p.SensA != orig.SensA || p.FrobR != orig.FrobR) {
				t.Fatal("served plan differs from the originally computed one")
			}
		})
	}
}

// TestStaleV1SidecarIgnored: a well-formed sidecar in the text-keyed v1
// format (testdata/sidecar_v1.tc, written by the last v1 build) is stale,
// not corrupt: nothing loads, nothing is quarantined or counted as a
// rebuild, and the next persist replaces it with a v2 file.
func TestStaleV1SidecarIgnored(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "sidecar_v1.tc"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "translate.tc")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if n, corrupt, err := VerifySidecar(path); n != 0 || corrupt || err != nil {
		t.Fatalf("VerifySidecar(v1) = %d, %v, %v; want 0 plans, healthy", n, corrupt, err)
	}
	c := NewCache(path)
	if n, q, err := c.LoadSidecar(); n != 0 || q != "" || err != nil {
		t.Fatalf("LoadSidecar(v1) = %d, %q, %v; want nothing loaded, no quarantine", n, q, err)
	}
	if _, err := os.Stat(path + durable.QuarantineSuffix); !os.IsNotExist(err) {
		t.Fatalf("stale sidecar was quarantined (stat err %v)", err)
	}
	if st := c.Stats(); st.Loads != 0 || st.Rebuilds != 0 {
		t.Fatalf("stats after stale load: %+v", st)
	}
	// The fixture's own workload is a miss now, and its persist upgrades
	// the file in place.
	f := newFixture(t, 80)
	if _, err := c.Plan(f.histogramAt(t, 10, 4, 10), strategy.H2, 16); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 1 || st.PersistFailures != 0 {
		t.Fatalf("stats after first v2 plan: %+v", st)
	}
	if n, corrupt, err := VerifySidecar(path); n != 1 || corrupt || err != nil {
		t.Fatalf("VerifySidecar after persist = %d, %v, %v; want 1 v2 plan", n, corrupt, err)
	}
	// An unknown version is still damage, not staleness.
	v3 := append([]byte(nil), v1...)
	v3[len(sidecarMagic)] = 3
	if _, corrupt := decodeSidecar(v3); !corrupt {
		t.Fatal("unknown sidecar version accepted")
	}
}

// TestParentCommitSidecarLoads: testdata/sidecar_v2.tc was written by the
// commit before internal/durable existed (two plans). It must verify and
// load here, and this tree's persist of the same plans must produce the
// same bytes — the frame format did not move. A torn tail, healthy on a
// live WAL, is damage on a file that is only ever replaced whole.
func TestParentCommitSidecarLoads(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "sidecar_v2.tc"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "translate.tc")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	if n, corrupt, err := VerifySidecar(path); n != 2 || corrupt || err != nil {
		t.Fatalf("VerifySidecar(fixture) = %d, %v, %v; want 2 healthy plans", n, corrupt, err)
	}
	c := NewCache(path)
	if n, q, err := c.LoadSidecar(); n != 2 || q != "" || err != nil {
		t.Fatalf("LoadSidecar(fixture) = %d, %q, %v; want 2 plans, no quarantine", n, q, err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	c.persist()
	if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, fixture) {
		t.Fatalf("re-persisted sidecar differs from the parent commit's bytes (err %v)", err)
	}
	if plans, corrupt := decodeSidecar(fixture[:len(fixture)-3]); len(plans) != 1 || !corrupt {
		t.Fatalf("torn sidecar: %d plans, corrupt=%v; want the 1-plan prefix, corrupt", len(plans), corrupt)
	}
}

// FuzzStoredPlan: the plan payload decoder never panics on arbitrary
// bytes, and whatever it accepts re-encodes to exactly the payload it
// read — there is one byte string per stored plan.
func FuzzStoredPlan(f *testing.F) {
	header := len(sidecarMagic) + 4
	for _, name := range []string{"sidecar_v1.tc", "sidecar_v2.tc"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		payloads, _, _, err := durable.Scan(data, header, maxSidecarFrame)
		if err != nil || len(payloads) == 0 {
			f.Fatalf("%s: %d frames, err %v", name, len(payloads), err)
		}
		for _, p := range payloads {
			f.Add(p)
		}
	}
	fresh := encodeStoredPlan(nil, &Plan{Strategy: "h2", Samples: 2, Seed: -7, l: 3, cols: 4, rows: 5, SensA: 1.5, FrobR: 2.5, Zs: []float64{0.25, 0.5}})
	payloads, _, _, _ := durable.Scan(fresh, 0, maxSidecarFrame)
	f.Add(payloads[0])
	f.Fuzz(func(t *testing.T, payload []byte) {
		s, err := decodeStoredPlan(payload)
		if err != nil {
			return
		}
		frames, _, _, err := durable.Scan(encodeStoredPlan(nil, s), 0, maxSidecarFrame)
		if err != nil || len(frames) != 1 || !bytes.Equal(frames[0], payload) {
			t.Fatalf("accepted payload does not re-encode to itself (err %v)", err)
		}
	})
}
