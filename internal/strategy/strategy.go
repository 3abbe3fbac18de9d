// Package strategy provides the strategy matrices A used by APEx's
// strategy-based (matrix) mechanism for workload counting queries
// (paper §5.2). A strategy answers a different set of counting queries with
// low sensitivity ‖A‖₁ from which the analyst's workload W is reconstructed
// via the pseudoinverse: ω = W·A⁺·(Ax + noise).
//
// Two strategies are built in: Identity (answer each partition count
// directly) and the hierarchical H2 tree of interval counts of Hay et al.,
// the strategy the paper uses for all experiments. H2 generalizes to any
// branching factor for ablation studies.
package strategy

import (
	"fmt"
	"strconv"

	"repro/internal/linalg"
)

// Strategy produces a strategy matrix for a given domain size.
type Strategy interface {
	// Name identifies the strategy in transcripts and experiment output.
	Name() string
	// Matrix returns the l×n strategy matrix for an n-partition domain.
	Matrix(n int) (*linalg.Matrix, error)
}

// Identity is the trivial strategy A = I.
type Identity struct{}

// Name implements Strategy.
func (Identity) Name() string { return "identity" }

// Matrix implements Strategy.
func (Identity) Matrix(n int) (*linalg.Matrix, error) {
	if n <= 0 {
		return nil, fmt.Errorf("strategy: domain size %d", n)
	}
	return linalg.Identity(n), nil
}

// Hierarchical is the Hb strategy: a complete b-ary tree of interval counts
// over the n partitions. Every tree node contributes one row that is the
// indicator of its interval; leaves are the singleton intervals. The
// sensitivity ‖A‖₁ equals the tree height (every element appears in one
// node per level).
type Hierarchical struct {
	// Branch is the branching factor; 0 or 1 means the default of 2 (H2).
	Branch int
}

// H2 is the paper's default strategy: a binary hierarchy of counts.
var H2 = Hierarchical{Branch: 2}

// Name implements Strategy.
func (h Hierarchical) Name() string {
	return "h" + strconv.Itoa(h.branch())
}

func (h Hierarchical) branch() int {
	if h.Branch < 2 {
		return 2
	}
	return h.Branch
}

// Matrix implements Strategy.
func (h Hierarchical) Matrix(n int) (*linalg.Matrix, error) {
	if n <= 0 {
		return nil, fmt.Errorf("strategy: domain size %d", n)
	}
	b := h.branch()
	type interval struct{ lo, hi int } // [lo, hi)
	var rows []interval
	queue := []interval{{0, n}}
	for len(queue) > 0 {
		iv := queue[0]
		queue = queue[1:]
		rows = append(rows, iv)
		size := iv.hi - iv.lo
		if size <= 1 {
			continue
		}
		// Split into up to b children of near-equal size.
		children := b
		if size < b {
			children = size
		}
		base := size / children
		extra := size % children
		lo := iv.lo
		for c := 0; c < children; c++ {
			w := base
			if c < extra {
				w++
			}
			queue = append(queue, interval{lo, lo + w})
			lo += w
		}
	}
	m := linalg.NewMatrix(len(rows), n)
	for r, iv := range rows {
		for j := iv.lo; j < iv.hi; j++ {
			m.Set(r, j, 1)
		}
	}
	return m, nil
}

// Reconstruction bundles a strategy matrix with the reconstruction matrix
// R = W·A⁺ used by the strategy mechanism, precomputed once per
// (workload, strategy, domain) triple.
type Reconstruction struct {
	// A is the strategy matrix (l×n).
	A *linalg.Matrix
	// R is W·A⁺ (L×l): noisy strategy answers are mapped to workload
	// answers by ω = R·ŷ.
	R *linalg.Matrix
	// SensA is ‖A‖₁, the strategy sensitivity.
	SensA float64
}

// NewReconstruction builds the reconstruction for workload matrix w and
// strategy s over w's column count. It verifies the strategy spans the
// workload (W·A⁺·A = W), returning an error otherwise.
func NewReconstruction(w *linalg.Matrix, s Strategy) (*Reconstruction, error) {
	a, err := s.Matrix(w.Cols())
	if err != nil {
		return nil, err
	}
	pinv, err := a.PseudoInverse()
	if err != nil {
		return nil, fmt.Errorf("strategy %s: pseudoinverse: %w", s.Name(), err)
	}
	r, err := w.Mul(pinv)
	if err != nil {
		return nil, err
	}
	// Spanning check: W·A⁺·A must reproduce W.
	back, err := r.Mul(a)
	if err != nil {
		return nil, err
	}
	if !back.Equal(w, 1e-6) {
		return nil, fmt.Errorf("strategy %s does not span the workload", s.Name())
	}
	return &Reconstruction{A: a, R: r, SensA: a.L1Norm()}, nil
}
