// Budget denial: demonstrates the privacy analyzer's guarantees — queries
// are answered while the worst-case loss fits the owner's budget, denied
// afterwards, and data-dependent mechanisms (the multi-poking mechanism)
// are charged their actual loss so the analyst can stretch the budget.
package main

import (
	"errors"
	"fmt"
	"log"

	"repro/internal/accuracy"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/noise"
	"repro/internal/query"
	"repro/internal/workload"
)

func main() {
	table := datagen.Adult(datagen.AdultSize, 1)
	eng, err := engine.New(table, engine.Config{
		Budget: 0.05, // a deliberately tight budget
		Mode:   engine.Optimistic,
		Rng:    noise.NewRand(9),
	})
	if err != nil {
		log.Fatal(err)
	}

	bins, err := workload.Histogram1D("capital gain", 0, 5000, 100)
	if err != nil {
		log.Fatal(err)
	}
	req := accuracy.Requirement{Alpha: 0.02 * float64(table.Size()), Beta: 0.0005}

	// An iceberg query whose counts sit far from the threshold: the
	// multi-poking mechanism answers it with a fraction of its worst-case
	// budget, leaving room for more queries.
	icq, err := query.NewICQ(bins, 0.5*float64(table.Size()), req)
	if err != nil {
		log.Fatal(err)
	}
	for i := 1; ; i++ {
		ans, err := eng.Ask(icq)
		if errors.Is(err, engine.ErrDenied) {
			fmt.Printf("query %d: DENIED (spent %.4f of %.4f)\n", i, eng.Spent(), eng.Budget())
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query %d: %s charged ε=%.4f (reserved up to %.4f) — running total %.4f\n",
			i, ans.Mechanism, ans.Epsilon, ans.EpsilonUpper, eng.Spent())
		if i > 50 {
			break
		}
	}

	// The transcript proves the invariant: actual losses sum to Spent() ≤ B.
	var sum float64
	entries, err := eng.Transcript()
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range entries {
		sum += e.Epsilon
	}
	fmt.Printf("transcript total ε=%.4f, budget B=%.2f — invariant holds: %v\n",
		sum, eng.Budget(), sum <= eng.Budget())
}
