package er

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/noise"
)

func TestGenerateCitationsLabels(t *testing.T) {
	pairs := GenerateCitations(CitationsConfig{Pairs: 2000, Seed: 1})
	if len(pairs) != 2000 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	var matches int
	for _, p := range pairs {
		if p.Match {
			matches++
		}
	}
	frac := float64(matches) / 2000
	if frac < 0.07 || frac > 0.13 {
		t.Fatalf("match fraction %v, want ~0.1", frac)
	}
}

func TestMatchPairsAreSimilar(t *testing.T) {
	pairs := GenerateCitations(CitationsConfig{Pairs: 800, Seed: 2, NullRate: 1e-9})
	var matchSim, nonSim float64
	var nm, nn int
	for _, p := range pairs {
		s := TokenSim(Jaccard, ThreeGrams.Tokens(p.R1.Title), ThreeGrams.Tokens(p.R2.Title))
		if p.Match {
			matchSim += s
			nm++
		} else {
			nonSim += s
			nn++
		}
	}
	avgMatch, avgNon := matchSim/float64(nm), nonSim/float64(nn)
	if avgMatch < avgNon+0.3 {
		t.Fatalf("title similarity must separate labels: match %v vs non %v", avgMatch, avgNon)
	}
}

func TestCitationGet(t *testing.T) {
	c := Citation{Title: "t", Authors: "a", Venue: "v", Year: 1999}
	if c.Get("title") != "t" || c.Get("authors") != "a" || c.Get("venue") != "v" || c.Get("year") != "1999" {
		t.Fatal("Get accessors")
	}
	if c.Get("bogus") != "" {
		t.Fatal("unknown attr must be empty")
	}
	if (Citation{}).Get("year") != "" {
		t.Fatal("zero year renders empty (missing)")
	}
}

func TestFeatureTableShape(t *testing.T) {
	pairs := GenerateCitations(CitationsConfig{Pairs: 50, Seed: 3})
	ft := FeatureTable(pairs)
	wantCols := 4*3*7 + 1
	if ft.Schema().Arity() != wantCols {
		t.Fatalf("arity %d, want %d", ft.Schema().Arity(), wantCols)
	}
	if ft.Size() != 50 {
		t.Fatalf("rows %d", ft.Size())
	}
	// All features in [0,1] or NULL.
	for i := 0; i < ft.Size(); i++ {
		row := ft.Row(i)
		for j := 0; j < wantCols-1; j++ {
			if row[j].IsNull() {
				continue
			}
			v, ok := row[j].AsNum()
			if !ok || v < 0 || v > 1 {
				t.Fatalf("feature (%d,%d) = %v", i, j, row[j])
			}
		}
	}
}

func TestFeatureSeparation(t *testing.T) {
	// The features must separate matches from non-matches on average —
	// otherwise the case study cannot work.
	pairs := GenerateCitations(CitationsConfig{Pairs: 600, Seed: 4})
	ft := FeatureTable(pairs)
	col, ok := ft.Schema().Lookup(FeatureName("title", ThreeGrams, Jaccard))
	if !ok {
		t.Fatal("missing feature column")
	}
	labelIdx, _ := ft.Schema().Lookup("label")
	var sumM, sumN float64
	var nM, nN int
	for i := 0; i < ft.Size(); i++ {
		row := ft.Row(i)
		v, ok := row[col].AsNum()
		if !ok {
			continue
		}
		if lab, _ := row[labelIdx].AsStr(); lab == "MATCH" {
			sumM += v
			nM++
		} else {
			sumN += v
			nN++
		}
	}
	if sumM/float64(nM) < sumN/float64(nN)+0.3 {
		t.Fatalf("feature separation too weak: %v vs %v", sumM/float64(nM), sumN/float64(nN))
	}
}

func TestSimPredicateOverFeatureTable(t *testing.T) {
	pairs := GenerateCitations(CitationsConfig{Pairs: 200, Seed: 5})
	ft := FeatureTable(pairs)
	p := SimPredicate{Attr: "title", Trans: ThreeGrams, Sim: Jaccard, Theta: 0.5}
	caught := ft.Count(p.Predicate())
	if caught == 0 || caught == ft.Size() {
		t.Fatalf("predicate should split the table, caught %d/%d", caught, ft.Size())
	}
}

func TestDNFCNFPredicates(t *testing.T) {
	pairs := GenerateCitations(CitationsConfig{Pairs: 100, Seed: 6})
	ft := FeatureTable(pairs)
	s := ft.Schema()
	if got := ft.Count(DNF{}.Predicate()); got != 0 {
		t.Fatalf("empty DNF must match nothing, got %d", got)
	}
	if got := ft.Count(CNF{}.Predicate()); got != ft.Size() {
		t.Fatalf("empty CNF must match everything, got %d", got)
	}
	p1 := SimPredicate{Attr: "title", Trans: ThreeGrams, Sim: Jaccard, Theta: 0.4}
	p2 := SimPredicate{Attr: "venue", Trans: SpaceTok, Sim: Overlap, Theta: 0.6}
	dnf := DNF{p1, p2}
	cnf := CNF{p1, p2}
	for i := 0; i < ft.Size(); i++ {
		row := ft.Row(i)
		d := dnf.Predicate().Eval(s, row)
		c := cnf.Predicate().Eval(s, row)
		e1, e2 := p1.Predicate().Eval(s, row), p2.Predicate().Eval(s, row)
		if d != (e1 || e2) {
			t.Fatal("DNF semantics")
		}
		if c != (e1 && e2) {
			t.Fatal("CNF semantics")
		}
	}
}

func TestQualityMetrics(t *testing.T) {
	pairs := GenerateCitations(CitationsConfig{Pairs: 400, Seed: 7})
	ft := FeatureTable(pairs)
	// A reasonable title predicate should yield decent blocking recall with
	// sub-linear cost.
	block := DNF{{Attr: "title", Trans: ThreeGrams, Sim: Jaccard, Theta: 0.4}}
	recall, cost := BlockingQuality(ft, block)
	if recall < 0.6 {
		t.Fatalf("recall %v too low for an easy blocking predicate", recall)
	}
	if cost >= 1 {
		t.Fatalf("cost %v", cost)
	}
	prec, rec, f1 := MatchingQuality(ft, CNF{{Attr: "title", Trans: ThreeGrams, Sim: Jaccard, Theta: 0.5}})
	if prec <= 0 || rec <= 0 || f1 <= 0 {
		t.Fatalf("matching quality: p=%v r=%v f1=%v", prec, rec, f1)
	}
	// Empty blocking: zero recall, zero cost.
	r0, c0 := BlockingQuality(ft, nil)
	if r0 != 0 || c0 != 0 {
		t.Fatalf("empty blocking: r=%v c=%v", r0, c0)
	}
}

func TestSampleCleanerRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 100; i++ {
		c := SampleCleaner(rng)
		if c.NumAttrs < 2 || c.NumAttrs > 4 {
			t.Fatalf("NumAttrs %d", c.NumAttrs)
		}
		if len(c.Transforms) < 1 || len(c.Transforms) > 3 {
			t.Fatalf("Transforms %v", c.Transforms)
		}
		if len(c.Sims) < 2 || len(c.Sims) > 6 {
			t.Fatalf("Sims %v", c.Sims)
		}
		if c.ThetaLo <= 0 || c.ThetaLo >= 0.5 || c.ThetaHi <= 0.5 || c.ThetaHi >= 1 {
			t.Fatalf("theta range [%v,%v]", c.ThetaLo, c.ThetaHi)
		}
		if c.MinMatchCaught < 0.2 || c.MinMatchCaught > 0.5 {
			t.Fatalf("x8 = %v", c.MinMatchCaught)
		}
		if c.MaxNonMatchCaught < 0.1 || c.MaxNonMatchCaught > 0.2 {
			t.Fatalf("x9 = %v", c.MaxNonMatchCaught)
		}
		if c.Relax != 2 && c.Relax != 3 {
			t.Fatalf("x10 = %v", c.Relax)
		}
		thetas := c.Thetas()
		if len(thetas) != c.NumThetas {
			t.Fatalf("thetas %v", thetas)
		}
	}
}

func TestCleanerThetaOrdering(t *testing.T) {
	c := Cleaner{ThetaLo: 0.2, ThetaHi: 0.8, NumThetas: 4, ThetaDescending: true}
	th := c.Thetas()
	for i := 1; i < len(th); i++ {
		if th[i] >= th[i-1] {
			t.Fatalf("descending thetas: %v", th)
		}
	}
	c.ThetaDescending = false
	th = c.Thetas()
	for i := 1; i < len(th); i++ {
		if th[i] <= th[i-1] {
			t.Fatalf("ascending thetas: %v", th)
		}
	}
	one := Cleaner{ThetaLo: 0.2, ThetaHi: 0.8, NumThetas: 1}
	if got := one.Thetas(); len(got) != 1 || got[0] != 0.5 {
		t.Fatalf("single theta = %v", got)
	}
}

func TestCleanerStyles(t *testing.T) {
	alpha := 10.0
	if (Cleaner{Style: Neutral}).AdjustNoisy(5, alpha) != 5 {
		t.Fatal("neutral")
	}
	if (Cleaner{Style: OptimisticStyle}).AdjustNoisy(5, alpha) != 7 {
		t.Fatal("optimistic")
	}
	if (Cleaner{Style: PessimisticStyle}).AdjustNoisy(5, alpha) != 3 {
		t.Fatal("pessimistic")
	}
}

func TestCandidatePredicatesDeterministicOrder(t *testing.T) {
	c := Cleaner{
		NumAttrs: 2, Transforms: []Transformation{TwoGrams},
		Sims: []SimFunc{Jaccard, Edit}, ThetaLo: 0.2, ThetaHi: 0.8,
		NumThetas: 2, PredOrderSeed: 99,
	}
	a := c.CandidatePredicates([]string{"title", "venue"})
	b := c.CandidatePredicates([]string{"title", "venue"})
	if len(a) != 2*1*2*2 {
		t.Fatalf("candidate count %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("candidate order must be deterministic per cleaner")
		}
	}
}

// featureTableCache shares an expensive feature table across strategy tests.
var (
	ftOnce  sync.Once
	ftTable *dataset.Table
)

func sharedFeatureTable(t *testing.T) *dataset.Table {
	t.Helper()
	ftOnce.Do(func() {
		pairs := GenerateCitations(CitationsConfig{Pairs: 500, Seed: 11})
		ftTable = FeatureTable(pairs)
	})
	return ftTable
}

func newTask(t *testing.T, budget float64, seed int64) *Task {
	t.Helper()
	ft := sharedFeatureTable(t)
	eng, err := engine.New(ft, engine.Config{
		Budget: budget,
		Mode:   engine.Optimistic,
		Rng:    noise.NewRand(seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	cl := SampleCleaner(rng)
	return &Task{
		Table:   ft,
		Engine:  eng,
		Cleaner: cl,
		Alpha:   0.08 * float64(ft.Size()),
		Beta:    0.0005,
	}
}

func TestRunBS1EndToEnd(t *testing.T) {
	task := newTask(t, 2.0, 21)
	block, err := RunBS1(task)
	if err != nil {
		t.Fatal(err)
	}
	recall, cost := BlockingQuality(task.Table, block)
	t.Logf("BS1: |O|=%d recall=%.3f cost=%.3f spent=%.3f", len(block), recall, cost, task.Engine.Spent())
	if task.Engine.Spent() > task.Engine.Budget()+1e-9 {
		t.Fatal("budget exceeded")
	}
	if task.Engine.TranscriptLen() == 0 {
		t.Fatal("no queries issued")
	}
}

func TestRunBS2EndToEnd(t *testing.T) {
	task := newTask(t, 2.0, 22)
	block, err := RunBS2(task)
	if err != nil {
		t.Fatal(err)
	}
	recall, cost := BlockingQuality(task.Table, block)
	t.Logf("BS2: |O|=%d recall=%.3f cost=%.3f spent=%.3f", len(block), recall, cost, task.Engine.Spent())
	if task.Engine.Spent() > task.Engine.Budget()+1e-9 {
		t.Fatal("budget exceeded")
	}
}

func TestRunMS1EndToEnd(t *testing.T) {
	task := newTask(t, 2.0, 23)
	match, err := RunMS1(task)
	if err != nil {
		t.Fatal(err)
	}
	p, r, f1 := MatchingQuality(task.Table, match)
	t.Logf("MS1: |O|=%d p=%.3f r=%.3f f1=%.3f spent=%.3f", len(match), p, r, f1, task.Engine.Spent())
	if task.Engine.Spent() > task.Engine.Budget()+1e-9 {
		t.Fatal("budget exceeded")
	}
}

func TestRunMS2EndToEnd(t *testing.T) {
	task := newTask(t, 2.0, 24)
	match, err := RunMS2(task)
	if err != nil {
		t.Fatal(err)
	}
	p, r, f1 := MatchingQuality(task.Table, match)
	t.Logf("MS2: |O|=%d p=%.3f r=%.3f f1=%.3f spent=%.3f", len(match), p, r, f1, task.Engine.Spent())
	if task.Engine.Spent() > task.Engine.Budget()+1e-9 {
		t.Fatal("budget exceeded")
	}
}

func TestStrategiesStopCleanlyOnTinyBudget(t *testing.T) {
	task := newTask(t, 0.0001, 25)
	block, err := RunBS1(task)
	if err != nil {
		t.Fatal(err)
	}
	if len(block) != 0 {
		t.Fatalf("tiny budget should deny everything, got |O|=%d", len(block))
	}
	if task.Engine.Spent() != 0 {
		t.Fatal("denied strategy must not spend")
	}
}
