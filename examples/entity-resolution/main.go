// Entity resolution: the paper's §8 case study end to end — generate a
// labeled citations pair dataset, run the BS2 blocking strategy and the MS1
// matching strategy against APEx, and report the cleaning quality achieved
// under the privacy budget.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/er"
	"repro/internal/noise"
)

func main() {
	// 1. A labeled training set of citation pairs (the sensitive data).
	pairs := er.GenerateCitations(er.CitationsConfig{Pairs: 1200, Seed: 3})
	features := er.FeatureTable(pairs)
	fmt.Printf("citations: %d labeled pairs, %d similarity features\n",
		features.Size(), features.Schema().Arity()-1)

	// 2. Blocking with BS2 (ICQ/TCQ-based exploration).
	engBlock, err := engine.New(features, engine.Config{
		Budget: 3.0,
		Mode:   engine.Optimistic,
		Rng:    noise.NewRand(11),
	})
	if err != nil {
		log.Fatal(err)
	}
	cleanerRng := rand.New(rand.NewSource(5))
	blockTask := &er.Task{
		Table:   features,
		Engine:  engBlock,
		Cleaner: er.SampleCleaner(cleanerRng),
		Alpha:   0.05 * float64(features.Size()),
		Beta:    0.0005,
	}
	block, err := er.RunBS2(blockTask)
	if err != nil {
		log.Fatal(err)
	}
	recall, cost := er.BlockingQuality(features, block)
	fmt.Printf("\nblocking (BS2): %d predicates, recall=%.3f, cost=%.3f, privacy=%.3f\n",
		len(block), recall, cost, engBlock.Spent())
	for _, p := range block {
		fmt.Printf("  OR  %s\n", p)
	}

	// 3. Matching with MS1 (WCQ-based exploration) on a fresh budget.
	engMatch, err := engine.New(features, engine.Config{
		Budget: 3.0,
		Mode:   engine.Optimistic,
		Rng:    noise.NewRand(13),
	})
	if err != nil {
		log.Fatal(err)
	}
	matchTask := &er.Task{
		Table:   features,
		Engine:  engMatch,
		Cleaner: er.SampleCleaner(cleanerRng),
		Alpha:   0.05 * float64(features.Size()),
		Beta:    0.0005,
	}
	match, err := er.RunMS1(matchTask)
	if err != nil {
		log.Fatal(err)
	}
	prec, rec, f1 := er.MatchingQuality(features, match)
	fmt.Printf("\nmatching (MS1): %d predicates, precision=%.3f recall=%.3f F1=%.3f, privacy=%.3f\n",
		len(match), prec, rec, f1, engMatch.Spent())
	for _, p := range match {
		fmt.Printf("  AND %s\n", p)
	}

	// 4. Transcript: every query the analyst asked, with its actual cost.
	fmt.Println("\nblocking transcript:")
	entries, err := engBlock.Transcript()
	if err != nil {
		log.Fatal(err)
	}
	for i, e := range entries {
		status := fmt.Sprintf("ε=%.4f", e.Epsilon)
		if e.Denied {
			status = "DENIED"
		}
		fmt.Printf("  q%-3d %-4s %s\n", i+1, e.Query.Kind, status)
	}
}
