package mechanism

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/noise"
	"repro/internal/query"
	"repro/internal/workload"
)

// MPM is the multi-poking mechanism for iceberg queries (Algorithm 4), the
// paper's data-dependent translation. It probes the noisy differences
// count - c up to m times with gradually relaxed privacy: the i-th poke uses
// ε_i = (i+1)·εmax/m, and noise across pokes is correlated via the
// gradual-release ladder so the transcript through poke i is ε_i-DP. When
// every bin is confidently above or below the threshold the mechanism stops
// early and charges only ε_i — which is why its actual privacy loss depends
// on how far the true counts sit from the threshold (Figure 4c).
type MPM struct {
	// Pokes is m, the maximum number of probes; 0 means DefaultPokes.
	Pokes int
}

// DefaultPokes matches the paper's m = 10.
const DefaultPokes = 10

// Name implements Mechanism.
func (MPM) Name() string { return "MPM" }

func (m MPM) pokes() int {
	if m.Pokes <= 0 {
		return DefaultPokes
	}
	return m.Pokes
}

// Applicable implements Mechanism: MPM answers ICQ only.
func (m MPM) Applicable(q *query.Query, tr *workload.Transformed) bool {
	return q.Kind == query.ICQ
}

// Translate implements Mechanism: εu = ‖W‖₁·ln(mL/(2β))/α is the worst-case
// loss (all m pokes); εl = εu/m is the best case (one poke).
func (m MPM) Translate(q *query.Query, tr *workload.Transformed) (Cost, error) {
	if !m.Applicable(q, tr) {
		return Cost{}, notApplicable(m.Name(), q)
	}
	if err := q.Req.Validate(); err != nil {
		return Cost{}, err
	}
	if tr.Sensitivity() == 0 {
		// Unsatisfiable workload: the exact answer is data independent.
		return Cost{}, nil
	}
	mm := float64(m.pokes())
	l := float64(q.L())
	epsMax := tr.Sensitivity() * math.Log(mm*l/(2*q.Req.Beta)) / q.Req.Alpha
	if epsMax <= 0 || math.IsNaN(epsMax) || math.IsInf(epsMax, 0) {
		return Cost{}, fmt.Errorf("mechanism: MPM translation produced invalid epsilon %v", epsMax)
	}
	return Cost{Lower: epsMax / mm, Upper: epsMax}, nil
}

// Prefetch implements Mechanism: MPM reads the exact workload answers.
func (MPM) Prefetch(*query.Query, *workload.Transformed) Prefetch {
	return Prefetch{Truth: true}
}

// Run implements Mechanism (Algorithm 4). The returned Epsilon is the
// privacy actually spent: ε_i of the poke at which the mechanism returned.
func (m MPM) Run(q *query.Query, tr *workload.Transformed, d *dataset.Table, rng *rand.Rand, cost Cost) (*Result, error) {
	epsMax := cost.Upper
	mm := m.pokes()
	sens := tr.Sensitivity()
	l := q.L()
	if sens == 0 {
		// Every count is identically zero: answer exactly, free of charge.
		sel := make([]bool, l)
		for j := range sel {
			sel[j] = 0 > q.Threshold
		}
		return &Result{Selected: sel, Epsilon: 0}, nil
	}

	// Privacy schedule ε_i = (i+1)·εmax/m.
	eps := make([]float64, mm)
	for i := range eps {
		eps[i] = float64(i+1) * epsMax / float64(mm)
	}
	ladder, err := noise.NewLadder(rng, sens, eps, l)
	if err != nil {
		return nil, err
	}

	truth := tr.TrueAnswers(d)
	diff := make([]float64, l) // Wx - c
	for j, v := range truth {
		diff[j] = v - q.Threshold
	}

	alpha := q.Req.Alpha
	tail := math.Log(float64(mm) * float64(l) / (2 * q.Req.Beta))
	noisyDiff := make([]float64, l)
	for i := 0; i < mm; i++ {
		eta := ladder.Noise(i)
		for j := range noisyDiff {
			noisyDiff[j] = diff[j] + eta[j]
		}
		// α_i = ‖W‖₁·ln(mL/(2β))/ε_i: the confident-decision margin at the
		// current privacy level.
		alphaI := sens * tail / eps[i]
		if i == mm-1 {
			// Last poke: α_i == α; decide every bin by the sign of the
			// noisy difference (Algorithm 4, line 20).
			sel := make([]bool, l)
			for j, v := range noisyDiff {
				sel[j] = v > 0
			}
			return &Result{Selected: sel, Epsilon: eps[i]}, nil
		}
		decided := true
		sel := make([]bool, l)
		for j, v := range noisyDiff {
			switch {
			case (v-alphaI)/alpha >= -1: // confidently (or acceptably) above
				sel[j] = true
			case (v+alphaI)/alpha <= 1: // confidently (or acceptably) below
				sel[j] = false
			default:
				decided = false
			}
			if !decided {
				break
			}
		}
		if decided {
			return &Result{Selected: sel, Epsilon: eps[i]}, nil
		}
	}
	// Unreachable: the final iteration always returns above.
	return nil, fmt.Errorf("mechanism: MPM did not terminate")
}

var _ Mechanism = MPM{}
