// Command apex-load is the repository's benchmark: it builds
// cmd/apex-server, starts it durable (-data-dir, -allow-seeds, otherwise
// shipped default flags), drives it over HTTP through
// internal/server/client in a closed loop, checks every answer against an
// independent oracle and every transcript against Definition 6.1 and a
// kill -9, and prints each metric of BENCHMARK.json by name with its unit.
//
// One workload, as the benchmark driver runs it (the last line of standard
// output is the result object):
//
//	apex-load --workload repeat-hot --seed 1 --seconds 10 --trace 0
//
// Every workload, end-to-end runs plus one traced run each, optionally
// saved for -compare:
//
//	apex-load -seed 1 [-runs 10] [-out set.json] # -runs repeats the one seed
//	apex-load -quick                 # all four at 1/20 size, seconds not minutes
//	apex-load -compare a.json b.json # gate b against a by BENCHMARK.json's bounds
//
// See ../README.md for the workloads, the metrics and how they interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/bench/loadgen"
	"repro/bench/testproc"
	"repro/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "apex-load: %v\n", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	runs     int
	out      string
	compare  bool
}

// extraSetups is how many throwaway set-ups precede an end-to-end run's
// measured one; with them a run reports medians of three set-ups and ten
// recoveries.
func (o options) extraSetups() int {
	if o.quick {
		return 1
	}
	return 2
}

func run() error {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and end with the driver's result line (default: run all)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the request streams")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "all workloads at 1/20 size with one-second windows: same checks, no stable numbers")
	flag.IntVar(&o.runs, "runs", 1, "without -workload: end-to-end runs per workload, all of -seed, so their spread is run-to-run noise alone")
	flag.StringVar(&o.out, "out", "", "without -workload: write the results here, for -compare")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files: apex-load -compare a.json b.json")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	if o.compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compare(spec, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if o.seconds == 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if o.quick {
		o.seconds = 1
	}
	if o.workload != "" {
		return runOne(root, spec, o)
	}
	return runAll(root, spec, o)
}

// findRoot walks up from the working directory to the checkout that holds
// BENCHMARK.json (and, for the build, go.mod and cmd/apex-server).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// newRunner builds the server, generates the workload's dataset and
// returns the runner that owns both. Everything it writes lives under
// .bench_build in the checkout.
func newRunner(root string, o options, name string) (*runner, error) {
	scale := 1
	if o.quick {
		scale = 20
	}
	wl, err := loadgen.WorkloadByName(name, scale)
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(build, "bin"), 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	r := &runner{
		root: root, work: work, bin: filepath.Join(build, "bin", "apex-server"),
		wl: wl, seed: o.seed, seconds: o.seconds, clients: runtime.NumCPU(),
	}
	if o.quick && wl.Mmap {
		r.mmapThreshold = server.DefaultMmapThreshold / int64(scale)
	}
	took, err := testproc.Build(root, "./cmd/apex-server", r.bin)
	if err != nil {
		r.cleanup()
		return nil, err
	}
	r.buildS = took.Seconds()
	if err := r.prepareData(); err != nil {
		r.cleanup()
		return nil, fmt.Errorf("generate %s: %w", wl.Data, err)
	}
	return r, nil
}

// outcome is one workload run: the metrics, and whether they can be trusted.
type outcome struct {
	metrics   values
	attempted int
	failed    int
	problems  []string
}

func (oc *outcome) absorb(l *life, what string) {
	oc.attempted += l.attempted
	oc.failed += l.failed
	for _, p := range l.problems {
		oc.problems = append(oc.problems, what+": "+p)
	}
}

// endToEndRun is the --trace 0 run: one lifetime, measured with the
// loader recording nothing but per-request latency, after extraSetups
// throwaway set-ups that time set-up and crash recovery.
func (r *runner) endToEndRun(extraSetups int) (*outcome, *life, error) {
	l, err := r.lifecycle(lifeOpts{extraSetups: extraSetups, durability: true})
	if err != nil {
		return nil, nil, err
	}
	oc := &outcome{metrics: r.endToEndMetrics(l)}
	oc.absorb(l, "end-to-end run")
	return oc, l, nil
}

// tracedRun is the --trace 1 run. It spends up to three server lifetimes:
// an untraced reference (unless the caller already has one of this seed),
// the traced one the per-layer numbers come from (client spans, /metrics
// differenced over the window), and — on repeat-hot, where the
// observability planes are the largest share of a request — one with
// tracing and analytics switched off in the server. Same seed, so all of
// them must agree exactly on the deterministic prefix. The layer replay runs last, on an idle machine.
func (r *runner) tracedRun(ref *life) (*outcome, error) {
	oc := &outcome{}
	if ref == nil {
		var err error
		if ref, err = r.lifecycle(lifeOpts{}); err != nil {
			return nil, err
		}
		oc.absorb(ref, "reference lifetime")
	}

	tr, err := r.lifecycle(lifeOpts{traced: true, durability: true})
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tr.dir)
	oc.absorb(tr, "traced lifetime")
	oc.sameSeed(r.seed, ref, tr)

	var planes *life
	if r.wl.Name == "repeat-hot" {
		if planes, err = r.lifecycle(lifeOpts{flags: []string{"-disable-tracing", "-disable-analytics"}}); err != nil {
			return nil, err
		}
		oc.absorb(planes, "planes-off lifetime")
		oc.sameSeed(r.seed, ref, planes)
	}

	rp, err := r.replay(filepath.Join(tr.dir, "catalog", datasetName, "table.seg"))
	if err != nil {
		return nil, err
	}
	oc.metrics = r.layerMetrics(ref, tr, planes, rp)
	return oc, nil
}

// sameSeed checks that two lifetimes of one seed agree exactly on the
// deterministic prefix: answer count, Σε to the bit, answers per mechanism.
func (oc *outcome) sameSeed(seed int64, a, b *life) {
	if da, db := a.prefix.digest(), b.prefix.digest(); da != db {
		oc.problems = append(oc.problems, fmt.Sprintf("two lifetimes of seed %d disagree on the deterministic prefix: %s vs %s", seed, da, db))
	}
}

// report prints the run's metrics by name with their units and returns
// the driver's result object. defs is BENCHMARK.json's list; a metric it
// names that the run did not produce is an error.
func (oc *outcome) report(workload string, defs []metricDef) (*resultLine, error) {
	res, err := line(defs, oc.metrics, len(oc.problems) == 0, oc.attempted, oc.failed)
	if err != nil {
		return nil, err
	}
	for _, d := range defs {
		fmt.Printf("%-16s %-36s %14.6g %s\n", workload, d.Name, oc.metrics[d.Name], d.Unit)
	}
	return res, nil
}

// runOne is the driver's entry: one workload, one mode, and the result
// object as the last line of standard output.
func runOne(root string, spec *benchmarkFile, o options) error {
	r, err := newRunner(root, o, o.workload)
	if err != nil {
		return err
	}
	defer r.cleanup()
	defs := spec.EndToEnd
	var oc *outcome
	if o.trace == 1 {
		defs = spec.PerLayer
		oc, err = r.tracedRun(nil)
	} else {
		oc, _, err = r.endToEndRun(o.extraSetups())
	}
	if err != nil {
		return err
	}
	res, err := oc.report(o.workload, defs)
	if err != nil {
		return err
	}
	for _, p := range oc.problems {
		fmt.Fprintf(os.Stderr, "apex-load: CHECK FAILED: %s\n", p)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return fmt.Errorf("%d correctness checks failed", len(oc.problems))
	}
	return nil
}

// resultFile is what -out writes and -compare reads: every end-to-end
// value of every run, and what the values depend on besides the code —
// the machine (its processor count is the client count), the seed, the
// window and the prefix lengths.
type resultFile struct {
	Machine   machine                         `json:"machine"`
	Seed      int64                           `json:"seed"`
	Runs      int                             `json:"runs"`
	Seconds   float64                         `json:"seconds"`
	EndToEnd  map[string]map[string][]float64 `json:"end_to_end"` // workload -> metric -> one value per run
	PerLayer  map[string]values               `json:"per_layer"`  // workload -> metric -> value (the traced run)
	EpsPrefix map[string]int                  `json:"eps_prefix"` // workload -> frozen per-session prefix length
}

type machine struct {
	NProc     int    `json:"nproc"`
	CPUModel  string `json:"cpu_model"`
	GoVersion string `json:"go_version"`
}

func thisMachine() machine {
	m := machine{NProc: runtime.NumCPU(), GoVersion: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// runAll runs every workload of BENCHMARK.json: o.runs end-to-end runs
// and one traced run, all of one seed — so the spread of a set is
// run-to-run noise alone, and every lifetime's deterministic prefix must
// repeat the first one's exactly. It fails if any check of any run failed.
func runAll(root string, spec *benchmarkFile, o options) error {
	res := resultFile{
		Machine: thisMachine(), Seed: o.seed, Runs: o.runs, Seconds: o.seconds,
		EndToEnd: map[string]map[string][]float64{}, PerLayer: map[string]values{}, EpsPrefix: map[string]int{},
	}
	var problems []string
	for _, w := range spec.Workloads {
		r, err := newRunner(root, o, w.Name)
		if err != nil {
			return err
		}
		res.EndToEnd[w.Name] = map[string][]float64{}
		res.EpsPrefix[w.Name] = r.wl.EpsPrefix
		note := func(oc *outcome) {
			for _, p := range oc.problems {
				problems = append(problems, fmt.Sprintf("%s seed %d: %s", w.Name, o.seed, p))
			}
		}
		var first *life
		for i := 0; i < o.runs; i++ {
			oc, l, err := r.endToEndRun(o.extraSetups())
			if err != nil {
				r.cleanup()
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			if first == nil {
				first = l
			}
			oc.sameSeed(o.seed, first, l)
			note(oc)
			if _, err := oc.report(w.Name, spec.EndToEnd); err != nil {
				r.cleanup()
				return err
			}
			for _, d := range spec.EndToEnd {
				res.EndToEnd[w.Name][d.Name] = append(res.EndToEnd[w.Name][d.Name], oc.metrics[d.Name])
			}
		}
		oc, err := r.tracedRun(first)
		r.cleanup()
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		note(oc)
		if _, err := oc.report(w.Name, spec.PerLayer); err != nil {
			return err
		}
		res.PerLayer[w.Name] = oc.metrics
	}
	if o.out != "" {
		data, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "apex-load: CHECK FAILED: %s\n", p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d correctness checks failed", len(problems))
	}
	fmt.Println("apex-load: all checks passed")
	return nil
}
