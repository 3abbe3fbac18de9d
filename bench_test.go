// Package repro's top-level benchmarks regenerate every table and figure of
// the paper's evaluation (run `go test -bench=. -benchmem`), plus ablations
// over its design choices (strategy family, Monte-Carlo sample count, poke
// count, engine mode). Benchmarks write their report to the test log on
// the first iteration so `-bench` output doubles as the reproduction
// artifact; use cmd/apex-bench for full-scale runs.
package repro

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/mechanism"
	"repro/internal/noise"
	"repro/internal/query"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// benchConfig is the reduced-scale configuration used inside testing.B so a
// full -bench sweep stays in the minutes range. Under -short (the CI
// compile-and-run smoke: -benchtime=1x -run='^$' -bench=.) it shrinks
// further so every benchmark kernel executes in seconds.
func benchConfig() experiments.Config {
	cfg := experiments.Quick()
	cfg.AdultSize = 8000
	cfg.TaxiSize = 16000
	cfg.Runs = 5
	cfg.ERRuns = 4
	cfg.ERPairs = 400
	cfg.MCSamples = 1000
	if testing.Short() {
		cfg.AdultSize = 1000
		cfg.TaxiSize = 2000
		cfg.Runs = 1
		cfg.ERRuns = 1
		cfg.ERPairs = 100
		cfg.MCSamples = 200
	}
	return cfg
}

// runExperiment executes the driver b.N times, logging the report once.
func runExperiment(b *testing.B, driver func(experiments.Config) error) {
	b.Helper()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		var out io.Writer = io.Discard
		var buf bytes.Buffer
		if i == 0 {
			out = &buf
		}
		cfg.Out = out
		if err := driver(cfg); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + buf.String())
		}
	}
}

// BenchmarkFigure2 regenerates the end-to-end privacy-cost/accuracy study
// for the 12 benchmark queries (paper Figure 2).
func BenchmarkFigure2(b *testing.B) { runExperiment(b, experiments.Figure2) }

// BenchmarkFigure3 regenerates the F1 study for QI4/QT1 (paper Figure 3).
func BenchmarkFigure3(b *testing.B) { runExperiment(b, experiments.Figure3) }

// BenchmarkTable2 regenerates the per-mechanism privacy-cost table
// (paper Table 2).
func BenchmarkTable2(b *testing.B) { runExperiment(b, experiments.Table2) }

// BenchmarkFigure4a regenerates the workload-size sweep (paper Figure 4a).
func BenchmarkFigure4a(b *testing.B) { runExperiment(b, experiments.Figure4a) }

// BenchmarkFigure4b regenerates the top-k sweep (paper Figure 4b).
func BenchmarkFigure4b(b *testing.B) { runExperiment(b, experiments.Figure4b) }

// BenchmarkFigure4c regenerates the ICQ-threshold sweep (paper Figure 4c).
func BenchmarkFigure4c(b *testing.B) { runExperiment(b, experiments.Figure4c) }

// BenchmarkFigure5 regenerates the budget sweep of the entity-resolution
// case study (paper Figure 5).
func BenchmarkFigure5(b *testing.B) { runExperiment(b, experiments.Figure5) }

// BenchmarkFigure6 regenerates the accuracy sweep of the case study
// (paper Figure 6).
func BenchmarkFigure6(b *testing.B) { runExperiment(b, experiments.Figure6) }

// BenchmarkFigure7 regenerates the small-data blocking study
// (paper Figure 7).
func BenchmarkFigure7(b *testing.B) { runExperiment(b, experiments.Figure7) }

// --- ablations ---

// prefixFixture builds a prefix-workload WCQ over the Adult table, the
// workload where the strategy mechanism matters most.
func prefixFixture(b *testing.B, size int) (*query.Query, *workload.Transformed) {
	b.Helper()
	adult := datagen.Adult(2000, 1)
	preds, err := workload.Prefix1D("capital gain", 0, float64(size*50), 50)
	if err != nil {
		b.Fatal(err)
	}
	req := accuracy.Requirement{Alpha: 160, Beta: experiments.Beta}
	q, err := query.NewWCQ(preds, req)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := workload.Transform(adult.Schema(), preds, workload.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return q, tr
}

// BenchmarkAblationH2Fanout compares strategy families on a prefix
// workload: hierarchical branching factors (higher fanout lowers strategy
// sensitivity but widens the reconstruction), the Haar wavelet, and the
// identity strategy as the baseline.
func BenchmarkAblationH2Fanout(b *testing.B) {
	q, tr := prefixFixture(b, 64)
	strategies := []struct {
		name string
		s    strategy.Strategy
	}{
		{"h2", strategy.Hierarchical{Branch: 2}},
		{"h4", strategy.Hierarchical{Branch: 4}},
		{"h8", strategy.Hierarchical{Branch: 8}},
		{"haar", strategy.Wavelet{}},
		{"identity", strategy.Identity{}},
	}
	for _, sc := range strategies {
		b.Run(sc.name, func(b *testing.B) {
			sm := mechanism.NewSM(sc.s, 1000)
			var eps float64
			for i := 0; i < b.N; i++ {
				cost, err := sm.Translate(q, tr)
				if err != nil {
					b.Fatal(err)
				}
				eps = cost.Upper
			}
			b.ReportMetric(eps, "eps")
		})
	}
}

// BenchmarkAblationMCSamples measures how the Monte-Carlo sample count N
// trades translation time against cost-estimate stability.
func BenchmarkAblationMCSamples(b *testing.B) {
	q, tr := prefixFixture(b, 64)
	for _, n := range []int{500, 2000, 10000} {
		b.Run(map[int]string{500: "n500", 2000: "n2000", 10000: "n10000"}[n], func(b *testing.B) {
			var eps float64
			for i := 0; i < b.N; i++ {
				sm := mechanism.NewSM(strategy.H2, n) // fresh cache each iter
				cost, err := sm.Translate(q, tr)
				if err != nil {
					b.Fatal(err)
				}
				eps = cost.Upper
			}
			b.ReportMetric(eps, "eps")
		})
	}
}

// BenchmarkAblationPokes varies the multi-poking mechanism's poke count m:
// more pokes raise the worst-case bound ln(mL/2β)/α but refine early
// stopping.
func BenchmarkAblationPokes(b *testing.B) {
	adult := datagen.Adult(4000, 1)
	preds, err := workload.Histogram1D("capital gain", 0, 5000, 500)
	if err != nil {
		b.Fatal(err)
	}
	req := accuracy.Requirement{Alpha: 0.08 * 4000, Beta: experiments.Beta}
	q, err := query.NewICQ(preds, 0.5*4000, req)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := workload.Transform(adult.Schema(), preds, workload.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []int{2, 10, 50} {
		b.Run(map[int]string{2: "m2", 10: "m10", 50: "m50"}[m], func(b *testing.B) {
			mpm := mechanism.MPM{Pokes: m}
			cost, err := mpm.Translate(q, tr)
			if err != nil {
				b.Fatal(err)
			}
			rng := noise.NewRand(7)
			var sum float64
			for i := 0; i < b.N; i++ {
				res, err := mpm.Run(q, tr, adult, rng, cost)
				if err != nil {
					b.Fatal(err)
				}
				sum += res.Epsilon
			}
			b.ReportMetric(sum/float64(b.N), "eps-actual")
		})
	}
}

// BenchmarkAblationModes compares optimistic vs pessimistic engine modes on
// an ICQ stream: optimistic mode bets on MPM's early stopping.
func BenchmarkAblationModes(b *testing.B) {
	adult := datagen.Adult(4000, 1)
	preds, err := workload.Histogram1D("capital gain", 0, 5000, 500)
	if err != nil {
		b.Fatal(err)
	}
	req := accuracy.Requirement{Alpha: 0.08 * 4000, Beta: experiments.Beta}
	q, err := query.NewICQ(preds, 0.5*4000, req)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []engine.Mode{engine.Optimistic, engine.Pessimistic} {
		b.Run(mode.String(), func(b *testing.B) {
			var spent float64
			var answered int
			for i := 0; i < b.N; i++ {
				eng, err := engine.New(adult, engine.Config{
					Budget: 1.0, Mode: mode, Rng: noise.NewRand(int64(i + 1)),
				})
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for {
					if _, err := eng.Ask(q); err != nil {
						break
					}
					n++
					if n >= 200 {
						break
					}
				}
				spent += eng.Spent()
				answered += n
			}
			b.ReportMetric(float64(answered)/float64(b.N), "queries-answered")
			b.ReportMetric(spent/float64(b.N), "eps-spent")
		})
	}
}
