// Command apex is an interactive APEx session over a CSV table: the data
// owner points it at a file, declares the public schema and a privacy
// budget, and an analyst types exploration queries, one per line.
//
//	apex -data people.csv -schema people.schema -budget 1.0
//
// The schema file has one attribute per line:
//
//	age        continuous  0 100
//	state      categorical AL,AK,...,WY
//
// Queries use the paper's syntax, e.g.:
//
//	BIN D ON COUNT(*) WHERE W = { age BETWEEN 0 AND 50, age BETWEEN 50 AND 100 } ERROR 100 CONFIDENCE 0.95;
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/noise"
	"repro/internal/query"
)

func main() {
	var (
		dataPath   = flag.String("data", "", "CSV file with the sensitive table (required)")
		schemaPath = flag.String("schema", "", "public schema file (required)")
		budget     = flag.Float64("budget", 1.0, "owner privacy budget B")
		mode       = flag.String("mode", "optimistic", "translator mode: optimistic|pessimistic")
		seed       = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	if *dataPath == "" || *schemaPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	schema, err := loadSchema(*schemaPath)
	if err != nil {
		fatal(err)
	}
	f, err := os.Open(*dataPath)
	if err != nil {
		fatal(err)
	}
	table, err := dataset.ReadCSV(f, schema)
	f.Close()
	if err != nil {
		fatal(err)
	}

	m, err := engine.ParseMode(*mode)
	if err != nil {
		fatal(err)
	}
	eng, err := engine.New(table, engine.Config{
		Budget: *budget,
		Mode:   m,
		Rng:    noise.NewRand(*seed),
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("APEx: %d rows, budget B=%g, %s mode. One query per line; blank line to quit.\n",
		table.Size(), *budget, m)
	sc := query.NewLineScanner(os.Stdin)
	for {
		fmt.Printf("[spent %.4g / %.4g] apex> ", eng.Spent(), eng.Budget())
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			break
		}
		if strings.HasPrefix(line, ".") {
			runCommand(eng, line)
			continue
		}
		q, err := query.ParseLine(line)
		if err != nil {
			fmt.Println("parse error:", err)
			continue
		}
		if q == nil { // comment line
			continue
		}
		ans, err := eng.Ask(q)
		if errors.Is(err, engine.ErrDenied) {
			fmt.Println("Query Denied (insufficient privacy budget)")
			continue
		}
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		printAnswer(q, ans)
	}
	fmt.Printf("session over: total privacy loss %.4g of %.4g\n", eng.Spent(), eng.Budget())
}

// runCommand executes a REPL dot-command: .budget, .transcript, .advise <query>.
func runCommand(eng *engine.Engine, line string) {
	cmd, rest, _ := strings.Cut(line, " ")
	switch cmd {
	case ".budget":
		fmt.Printf("budget B=%g, spent %.4g, remaining %.4g\n",
			eng.Budget(), eng.Spent(), eng.Remaining())
	case ".transcript":
		entries, err := eng.Transcript()
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		for i, e := range entries {
			switch {
			case e.Denied:
				fmt.Printf("  %3d DENIED\n", i+1)
			case e.Query != nil:
				fmt.Printf("  %3d %-4s eps=%.4g via %s\n", i+1, e.Query.Kind, e.Epsilon, e.Answer.Mechanism)
			default:
				fmt.Printf("  %3d %-12s eps=%.4g\n", i+1, e.Label, e.Epsilon)
			}
		}
	case ".advise":
		q, err := query.Parse(strings.TrimSpace(rest))
		if err != nil {
			fmt.Println("parse error:", err)
			return
		}
		best, affordable, err := eng.Advise(q)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		if best == nil {
			fmt.Println("no applicable mechanism")
			return
		}
		fmt.Printf("cheapest: %s, eps in [%.4g, %.4g], affordable: %v\n",
			best.Mechanism.Name(), best.Cost.Lower, best.Cost.Upper, affordable)
	case ".help":
		fmt.Println("commands: .budget | .transcript | .advise <query> | .help")
	default:
		fmt.Printf("unknown command %q (try .help)\n", cmd)
	}
}

func printAnswer(q *query.Query, ans *engine.Answer) {
	fmt.Printf("mechanism=%s eps=%.4g\n", ans.Mechanism, ans.Epsilon)
	switch q.Kind {
	case query.WCQ:
		for i, p := range ans.Predicates {
			fmt.Printf("  %-40s %.1f\n", p, ans.Counts[i])
		}
	default:
		sel := ans.SelectedPredicates()
		if len(sel) == 0 {
			fmt.Println("  (no bins selected)")
		}
		for _, p := range sel {
			fmt.Printf("  %s\n", p)
		}
	}
}

// loadSchema reads a schema file in the shared text format (see
// dataset.ReadSchemaText).
func loadSchema(path string) (*dataset.Schema, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadSchemaText(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "apex:", err)
	os.Exit(1)
}
