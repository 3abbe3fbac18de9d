package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/accuracy"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/mechanism"
	"repro/internal/noise"
	"repro/internal/query"
	"repro/internal/strategy"
	"repro/internal/workload"
)

func reqFor(tableSize int, alphaFrac, beta float64) accuracy.Requirement {
	return accuracy.Requirement{Alpha: alphaFrac * float64(tableSize), Beta: beta}
}

// datasets materializes the two benchmark tables.
func (c Config) datasets() (adult, taxi *dataset.Table) {
	return datagen.Adult(c.AdultSize, c.Seed), datagen.NYTaxi(c.TaxiSize, c.Seed+1)
}

func (c Config) tableFor(b BenchQuery, adult, taxi *dataset.Table) *dataset.Table {
	if b.Dataset == "adult" {
		return adult
	}
	return taxi
}

func (c Config) mechanisms() []mechanism.Mechanism {
	return []mechanism.Mechanism{
		mechanism.LM{},
		mechanism.NewSM(strategy.H2, c.MCSamples),
		mechanism.MPM{},
		mechanism.LTM{},
	}
}

// newEngine builds an optimistic-mode engine over d with the given suite,
// drawing from rng, under a budget large enough to isolate mechanism choice
// from budgeting. Every driver reaches mechanisms only through such
// engines, so the figures exercise the production translate → run path and
// its shared transformation and translation memos.
func newEngine(d *dataset.Table, rng *rand.Rand, mechs ...mechanism.Mechanism) (*engine.Engine, error) {
	return engine.New(d, engine.Config{Budget: 1e12, Mode: engine.Optimistic, Mechanisms: mechs, Rng: rng})
}

// perMechanism builds one single-mechanism engine per suite member, in
// suite order, so one mechanism's cost and runs can be read in isolation.
func perMechanism(d *dataset.Table, rng *rand.Rand, mechs ...mechanism.Mechanism) ([]*engine.Engine, error) {
	engs := make([]*engine.Engine, len(mechs))
	for i, m := range mechs {
		var err error
		if engs[i], err = newEngine(d, rng, m); err != nil {
			return nil, err
		}
	}
	return engs, nil
}

// upperCost is the worst-case privacy cost a single-mechanism engine
// translates q to; ok is false when its mechanism does not apply to q.
func upperCost(eng *engine.Engine, q *query.Query) (eps float64, ok bool, err error) {
	choices, err := eng.Translations(q)
	if err != nil || len(choices) == 0 {
		return 0, false, err
	}
	return choices[0].Cost.Upper, true, nil
}

// truthOf returns q's exact answers through the engine's own
// transformation cache — the scan the mechanisms themselves read.
func truthOf(eng *engine.Engine, q *query.Query) ([]float64, error) {
	d := eng.Table()
	tr, err := eng.Transforms().Transform(d.Schema(), workload.Key(q.Predicates), q.Predicates)
	if err != nil {
		return nil, err
	}
	return tr.TrueAnswers(d), nil
}

// empiricalError computes the paper's per-kind empirical error, scaled by |D|.
func empiricalError(q *query.Query, truth []float64, size int, ans *engine.Answer) (float64, error) {
	var e float64
	var err error
	switch q.Kind {
	case query.WCQ:
		e, err = accuracy.WCQError(truth, ans.Counts)
	case query.ICQ:
		e, err = accuracy.ICQError(truth, ans.Selected, q.Threshold)
	case query.TCQ:
		e, err = accuracy.TCQError(truth, ans.Selected, q.K)
	}
	if err != nil {
		return 0, err
	}
	return e / float64(size), nil
}

// Figure2 reproduces the end-to-end study: for each of the 12 queries and
// each α, the mechanism APEx (optimistic mode) picks, its privacy cost, and
// the empirical error over Runs repetitions.
func Figure2(cfg Config) error {
	cfg = cfg.norm()
	w := cfg.out()
	adult, taxi := cfg.datasets()
	queries, err := Benchmark()
	if err != nil {
		return err
	}
	rng := noise.NewRand(cfg.Seed + 100)
	engs := make(map[*dataset.Table]*engine.Engine)
	for _, d := range []*dataset.Table{adult, taxi} {
		if engs[d], err = newEngine(d, rng, cfg.mechanisms()...); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "# Figure 2: privacy cost vs empirical error (optimistic mode)")
	fmt.Fprintln(w, "query\talpha/|D|\tmechanism\teps_upper\teps_actual_median\terr_median\terr_max")
	for _, b := range queries {
		d := cfg.tableFor(b, adult, taxi)
		eng := engs[d]
		for _, af := range AlphaFractions {
			q, err := b.Bind(d.Size(), af, Beta)
			if err != nil {
				return err
			}
			truth, err := truthOf(eng, q)
			if err != nil {
				return err
			}
			var epsActual, errs []float64
			var mechName string
			var epsUpper float64
			for run := 0; run < cfg.Runs; run++ {
				ans, err := eng.Ask(q)
				if err != nil {
					return fmt.Errorf("%s alpha=%g: %w", b.Name, af, err)
				}
				mechName = ans.Mechanism
				epsUpper = ans.EpsilonUpper
				epsActual = append(epsActual, ans.Epsilon)
				e, err := empiricalError(q, truth, d.Size(), ans)
				if err != nil {
					return err
				}
				errs = append(errs, e)
			}
			fmt.Fprintf(w, "%s\t%.2f\t%s\t%.6g\t%.6g\t%.4f\t%.4f\n",
				b.Name, af, mechName, epsUpper, median(epsActual), median(errs), maxOf(errs))
		}
	}
	return nil
}

// Figure3 reproduces the F1-score study for QI4 (ICQ) and QT1 (TCQ).
func Figure3(cfg Config) error {
	cfg = cfg.norm()
	w := cfg.out()
	adult, taxi := cfg.datasets()
	queries, err := Benchmark()
	if err != nil {
		return err
	}
	rng := noise.NewRand(cfg.Seed + 200)
	fmt.Fprintln(w, "# Figure 3: F1 of noisy vs true answer sets (QI4, QT1)")
	fmt.Fprintln(w, "query\talpha/|D|\teps_actual_median\tF1_median")
	for _, b := range queries {
		if b.Name != "QI4" && b.Name != "QT1" {
			continue
		}
		d := cfg.tableFor(b, adult, taxi)
		eng, err := newEngine(d, rng, cfg.mechanisms()...)
		if err != nil {
			return err
		}
		for _, af := range AlphaFractions {
			q, err := b.Bind(d.Size(), af, Beta)
			if err != nil {
				return err
			}
			truth, err := truthOf(eng, q)
			if err != nil {
				return err
			}
			var truthSel []bool
			if q.Kind == query.ICQ {
				truthSel = accuracy.SelectAbove(truth, q.Threshold)
			} else {
				truthSel = accuracy.SelectTopK(truth, q.K)
			}
			var epss, f1s []float64
			for run := 0; run < cfg.Runs; run++ {
				ans, err := eng.Ask(q)
				if err != nil {
					return err
				}
				f1, err := accuracy.F1(truthSel, ans.Selected)
				if err != nil {
					return err
				}
				epss = append(epss, ans.Epsilon)
				f1s = append(f1s, f1)
			}
			fmt.Fprintf(w, "%s\t%.2f\t%.6g\t%.3f\n", b.Name, af, median(epss), median(f1s))
		}
	}
	return nil
}

// Table2 reproduces the optimal-mechanism study: the median actual privacy
// cost of every applicable mechanism on all 12 queries at α ∈ {0.02, 0.08}|D|.
func Table2(cfg Config) error {
	cfg = cfg.norm()
	w := cfg.out()
	adult, taxi := cfg.datasets()
	queries, err := Benchmark()
	if err != nil {
		return err
	}
	rng := noise.NewRand(cfg.Seed + 300)
	suites := make(map[*dataset.Table][]*engine.Engine)
	for _, d := range []*dataset.Table{adult, taxi} {
		if suites[d], err = perMechanism(d, rng, cfg.mechanisms()...); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "# Table 2: median actual privacy cost per mechanism")
	fmt.Fprintln(w, "query\talpha/|D|\tmechanism\teps_median\tbest")
	for _, b := range queries {
		d := cfg.tableFor(b, adult, taxi)
		for _, af := range []float64{0.02, 0.08} {
			q, err := b.Bind(d.Size(), af, Beta)
			if err != nil {
				return err
			}
			type row struct {
				name string
				eps  float64
			}
			var rows []row
			for _, eng := range suites[d] {
				_, applies, err := upperCost(eng, q)
				if err != nil {
					return err
				}
				if !applies {
					continue
				}
				var eps []float64
				var name string
				for run := 0; run < cfg.Runs; run++ {
					ans, err := eng.Ask(q)
					if err != nil {
						return fmt.Errorf("%s: %w", b.Name, err)
					}
					name = ans.Mechanism
					eps = append(eps, ans.Epsilon)
				}
				// Table 2 labels mechanisms with the query type as prefix.
				rows = append(rows, row{q.Kind.String() + "-" + name, median(eps)})
			}
			best := ""
			bestEps := -1.0
			for _, r := range rows {
				if bestEps < 0 || r.eps < bestEps {
					bestEps, best = r.eps, r.name
				}
			}
			for _, r := range rows {
				marker := ""
				if r.name == best {
					marker = "*"
				}
				fmt.Fprintf(w, "%s\t%.2f\t%s\t%.6g\t%s\n", b.Name, af, r.name, r.eps, marker)
			}
		}
	}
	return nil
}

// Figure4a reproduces the workload-size sweep: LM vs SM privacy cost on the
// QW1 (histogram) and QW2 (prefix) templates for L ∈ {100..500}.
func Figure4a(cfg Config) error {
	cfg = cfg.norm()
	w := cfg.out()
	adult, _ := cfg.datasets()
	fmt.Fprintln(w, "# Figure 4a: privacy cost vs workload size L (alpha=0.08|D|)")
	fmt.Fprintln(w, "L\tLM,QW1\tLM,QW2\tSM,QW1\tSM,QW2")
	req := reqFor(adult.Size(), 0.08, Beta)
	engs, err := perMechanism(adult, nil, mechanism.LM{}, mechanism.NewSM(strategy.H2, minInt(cfg.MCSamples, 1000)))
	if err != nil {
		return err
	}
	for _, l := range []int{100, 200, 300, 400, 500} {
		hist, err := workload.Histogram1D("capital gain", 0, float64(l*50), 50)
		if err != nil {
			return err
		}
		prefix, err := workload.Prefix1D("capital gain", 0, float64(l*50), 50)
		if err != nil {
			return err
		}
		var costs []float64
		for _, eng := range engs {
			for _, preds := range [][]dataset.Predicate{hist, prefix} {
				q, err := query.NewWCQ(preds, req)
				if err != nil {
					return err
				}
				eps, _, err := upperCost(eng, q)
				if err != nil {
					return err
				}
				costs = append(costs, eps)
			}
		}
		fmt.Fprintf(w, "%d\t%.6g\t%.6g\t%.6g\t%.6g\n", l, costs[0], costs[1], costs[2], costs[3])
	}
	return nil
}

// Figure4b reproduces the top-k sweep: LM vs LTM privacy cost on QT3/QT4
// for k ∈ {10..50}.
func Figure4b(cfg Config) error {
	cfg = cfg.norm()
	w := cfg.out()
	_, taxi := cfg.datasets()
	queries, err := Benchmark()
	if err != nil {
		return err
	}
	var qt3, qt4 BenchQuery
	for _, b := range queries {
		switch b.Name {
		case "QT3":
			qt3 = b
		case "QT4":
			qt4 = b
		}
	}
	engs, err := perMechanism(taxi, nil, mechanism.LM{}, mechanism.LTM{})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Figure 4b: privacy cost vs TCQ k (alpha=0.08|D|)")
	fmt.Fprintln(w, "k\tLM,QT3\tLM,QT4\tLTM,QT3\tLTM,QT4")
	for _, k := range []int{10, 20, 30, 40, 50} {
		var costs []float64
		for _, eng := range engs {
			for _, b := range []BenchQuery{qt3, qt4} {
				b.K = k
				q, err := b.Bind(taxi.Size(), 0.08, Beta)
				if err != nil {
					return err
				}
				eps, _, err := upperCost(eng, q)
				if err != nil {
					return err
				}
				costs = append(costs, eps)
			}
		}
		fmt.Fprintf(w, "%d\t%.6g\t%.6g\t%.6g\t%.6g\n", k, costs[0], costs[1], costs[2], costs[3])
	}
	return nil
}

// Figure4c reproduces the ICQ threshold sweep on QI2: the actual privacy
// cost of ICQ-LM, ICQ-SM and ICQ-MPM as c/|D| varies. MPM's cost dips when
// all bin counts are far from c and spikes when a bin count hugs c.
func Figure4c(cfg Config) error {
	cfg = cfg.norm()
	w := cfg.out()
	adult, _ := cfg.datasets()
	queries, err := Benchmark()
	if err != nil {
		return err
	}
	var qi2 BenchQuery
	for _, b := range queries {
		if b.Name == "QI2" {
			qi2 = b
		}
	}
	engs, err := perMechanism(adult, noise.NewRand(cfg.Seed+400),
		mechanism.LM{}, mechanism.NewSM(strategy.H2, minInt(cfg.MCSamples, 1000)), mechanism.MPM{})
	if err != nil {
		return err
	}
	lm, sm, mpm := engs[0], engs[1], engs[2]
	fmt.Fprintln(w, "# Figure 4c: actual privacy cost vs ICQ threshold c (QI2, alpha=0.08|D|)")
	fmt.Fprintln(w, "c/|D|\tICQ-LM\tICQ-SM\tICQ-MPM_median")
	for _, cf := range []float64{0.01, 0.02, 0.04, 0.08, 0.16, 0.24, 0.32, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 1.0} {
		qi2.ThresholdFrac = cf
		q, err := qi2.Bind(adult.Size(), 0.08, Beta)
		if err != nil {
			return err
		}
		lmEps, _, err := upperCost(lm, q)
		if err != nil {
			return err
		}
		smEps, _, err := upperCost(sm, q)
		if err != nil {
			return err
		}
		var mpmEps []float64
		for run := 0; run < cfg.Runs; run++ {
			ans, err := mpm.Ask(q)
			if err != nil {
				return err
			}
			mpmEps = append(mpmEps, ans.Epsilon)
		}
		fmt.Fprintf(w, "%.2f\t%.6g\t%.6g\t%.6g\n", cf, lmEps, smEps, median(mpmEps))
	}
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp[len(cp)/2]
}

func maxOf(xs []float64) float64 {
	var best float64
	for i, x := range xs {
		if i == 0 || x > best {
			best = x
		}
	}
	return best
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
