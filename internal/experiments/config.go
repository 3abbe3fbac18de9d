// Package experiments regenerates every table and figure of the paper's
// evaluation (§7 query benchmarks, §8 entity-resolution case study). Each
// driver prints the same rows/series the paper reports.
package experiments

import (
	"io"
	"os"
)

// Config scales the experiment drivers. The zero value runs a laptop-scale
// configuration; Paper() matches the paper's sizes where feasible.
type Config struct {
	// AdultSize is |D| for the Adult dataset (paper: 32561).
	AdultSize int
	// TaxiSize is |D| for the NYTaxi dataset (paper: 9710124; default 100k —
	// all reported metrics are scaled by |D|, so the curve shapes are size
	// invariant: TestDatasetScaleInvariance in internal/integration).
	TaxiSize int
	// Runs is the repetition count for per-query experiments (paper: 10).
	Runs int
	// ERRuns is the repetition count for case-study strategies (paper: 100).
	ERRuns int
	// ERPairs is the case-study training size (paper: 4000).
	ERPairs int
	// MCSamples is the strategy-mechanism Monte-Carlo sample count
	// (paper: 10000).
	MCSamples int
	// Seed drives all randomness.
	Seed int64
	// Out receives the report; nil means os.Stdout.
	Out io.Writer
}

// Default returns the laptop-scale configuration used by tests and benches.
func Default() Config {
	return Config{
		AdultSize: 32561,
		TaxiSize:  100000,
		Runs:      10,
		ERRuns:    20,
		ERPairs:   2000,
		MCSamples: 3000,
		Seed:      1,
	}
}

// Quick returns a fast configuration for smoke tests.
func Quick() Config {
	return Config{
		AdultSize: 4000,
		TaxiSize:  8000,
		Runs:      3,
		ERRuns:    3,
		ERPairs:   300,
		MCSamples: 500,
		Seed:      1,
	}
}

// Paper returns the paper's configuration (slow; the full taxi table).
func Paper() Config {
	return Config{
		AdultSize: 32561,
		TaxiSize:  9710124,
		Runs:      10,
		ERRuns:    100,
		ERPairs:   4000,
		MCSamples: 10000,
		Seed:      1,
	}
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return os.Stdout
	}
	return c.Out
}

func (c Config) norm() Config {
	d := Default()
	if c.AdultSize == 0 {
		c.AdultSize = d.AdultSize
	}
	if c.TaxiSize == 0 {
		c.TaxiSize = d.TaxiSize
	}
	if c.Runs == 0 {
		c.Runs = d.Runs
	}
	if c.ERRuns == 0 {
		c.ERRuns = d.ERRuns
	}
	if c.ERPairs == 0 {
		c.ERPairs = d.ERPairs
	}
	if c.MCSamples == 0 {
		c.MCSamples = d.MCSamples
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// AlphaFractions is the paper's α sweep (fractions of |D|).
var AlphaFractions = []float64{0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64}

// Beta is the paper's fixed per-query failure probability.
const Beta = 0.0005
