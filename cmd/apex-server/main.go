// Command apex-server hosts APEx as a multi-tenant HTTP/JSON service: the
// data owner registers named datasets (CSV + schema pairs), analysts open
// sessions against them with a privacy budget, post exploration queries in
// the paper's text syntax, and audit the full per-session transcript.
//
//	apex-server -listen :8080 \
//	  -data-dir /var/lib/apex \
//	  -dataset people=people.csv,people.schema \
//	  -dataset taxi=taxi.csv,taxi.schema \
//	  -max-budget 2.0
//
// With -data-dir set the server is durable: registered datasets persist
// to a catalog, every session commit is fsynced into a per-session
// write-ahead log before the answer is released, and on startup the
// catalog and session logs are replayed — sessions resume with their
// exact remaining budgets and byte-identical transcripts, re-validated
// against the Definition 6.1 invariant. SIGTERM/SIGINT drains in-flight
// queries, flushes the logs and exits; kill -9 loses nothing that was
// ever acknowledged.
//
// Queries run through a per-dataset execution scheduler: pending distinct
// workloads are coalesced into one batched columnar pass, sessions are
// dispatched round-robin, and a full queue answers 429 + Retry-After
// (bound the queue with -queue-depth).
// Prometheus-format observability — per-mechanism latency, queue depth,
// batch sizes, budget-spend histograms — is served at /metrics.
//
// A quickstart with curl:
//
//	curl -s localhost:8080/v1/datasets
//	curl -s -X POST localhost:8080/v1/sessions \
//	  -d '{"dataset":"people","budget":1.0,"mode":"optimistic","seed":7}'
//	curl -s -X POST localhost:8080/v1/sessions/<id>/query \
//	  -d '{"query":"BIN D ON COUNT(*) WHERE W = { age BETWEEN 0 AND 50 } ERROR 100 CONFIDENCE 0.95;"}'
//	curl -s localhost:8080/v1/sessions/<id>/transcript
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/analytics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/store"
)

// datasetFlags collects repeated -dataset name=csv,schema values.
type datasetFlags []string

func (d *datasetFlags) String() string { return strings.Join(*d, " ") }

func (d *datasetFlags) Set(v string) error {
	*d = append(*d, v)
	return nil
}

// drainTimeout bounds how long shutdown waits for in-flight requests.
const drainTimeout = 30 * time.Second

// options holds the parsed command line: deployment and owner policy
// only. The flight-recorder triggers have no flag; PUT /v1/debug/config
// sets them (and the slow-query threshold) on a live server.
type options struct {
	datasets         datasetFlags
	listen           string
	dataDir          string
	maxBudget        float64
	maxSessions      int
	allowSeeds       bool
	queueDepth       int
	debugAddr        string
	slowQuery        time.Duration
	disableTracing   bool
	mmapThreshold    int64
	coldStart        bool
	scrubInterval    time.Duration
	scrubRate        int64
	disableAnalytics bool
	tsInterval       time.Duration
	recProfile       time.Duration
	recCooldown      time.Duration
}

// defineFlags registers every apex-server flag on fs. The README's flag
// table is checked against this set by main_test.go, both directions.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.listen, "listen", ":8080", "address to serve on")
	fs.StringVar(&o.dataDir, "data-dir", "", "durable data directory (empty = in-memory only: datasets and transcripts vanish with the process)")
	fs.Var(&o.datasets, "dataset", "dataset to host as name=data.csv,schema.file (repeatable)")
	fs.Float64Var(&o.maxBudget, "max-budget", 0, "per-session budget cap (0 = uncapped)")
	fs.IntVar(&o.maxSessions, "max-sessions", 0, "live session limit (0 = unlimited)")
	fs.BoolVar(&o.allowSeeds, "allow-seeds", false, "let analysts fix their session RNG seed (voids privacy against an analyst who knows the seed; for trusted/reproducible use only)")
	fs.IntVar(&o.queueDepth, "queue-depth", 0, "pending-query bound per dataset before 429 backpressure (0 = scheduler default)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "address for the private debug listener (net/http/pprof + runtime metrics); empty = disabled, keep it off the public network")
	fs.DurationVar(&o.slowQuery, "slow-query", 0, "log a structured JSON line (with trace ID and per-phase breakdown) for every request at least this slow; 0 = disabled")
	fs.BoolVar(&o.disableTracing, "disable-tracing", false, "turn off request tracing (span recording, /v1/debug/traces, slow-query log); X-Request-ID assignment stays on")
	fs.Int64Var(&o.mmapThreshold, "mmap-threshold", server.DefaultMmapThreshold,
		"full-width column bytes (4 B a categorical cell, 8 B a continuous one, whatever the segment packs them to) at/above which a durable dataset is served from its mmap'd column-store segment instead of the heap (0 = always mmap, negative = never)")
	fs.BoolVar(&o.coldStart, "cold-start", false,
		"recover datasets strictly from column-store segments: never re-parse source CSV (entries without a valid segment are skipped)")
	fs.DurationVar(&o.scrubInterval, "scrub-interval", 0,
		"pause between background integrity-scrub cycles (segment/WAL/sidecar checksums, live transcript re-validation); 0 = scrubbing off")
	fs.Int64Var(&o.scrubRate, "scrub-rate", 64,
		"scrub read-rate limit in MiB/s so verification never competes with query service for disk bandwidth (0 = unpaced)")
	fs.BoolVar(&o.disableAnalytics, "disable-analytics", false,
		"turn off the workload analytics plane (cost attribution, /v1/debug/top, /v1/debug/timeseries, flight recorder)")
	fs.DurationVar(&o.tsInterval, "timeseries-interval", 0,
		"self-snapshot pace of the time-series sampler, also the flight-recorder check pace (0 = default 1s)")
	fs.DurationVar(&o.recProfile, "recorder-profile", 0,
		"CPU-profile length inside each incident bundle (0 = default 2s)")
	fs.DurationVar(&o.recCooldown, "recorder-cooldown", 0,
		"minimum spacing between incident captures (0 = default 5m)")
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()

	reg := server.NewRegistry()
	reg.SetStorage(server.StoragePolicy{MmapThreshold: o.mmapThreshold, ColdStart: o.coldStart})

	// Recovery phase 1: the catalog. Datasets persisted by a previous
	// life come back first so recovered sessions find their tables.
	// Entries with a valid column-store segment reopen via mmap-or-heap
	// per the storage policy without touching the source CSV; the logged
	// source and elapsed time make a CSV re-parse regression visible.
	var st *store.Store
	if o.dataDir != "" {
		var err error
		if st, err = store.Open(o.dataDir); err != nil {
			log.Fatalf("apex-server: %v", err)
		}
		reg.AttachStore(st)
		recovered, skipped, err := reg.RecoverDatasets()
		if err != nil {
			log.Fatalf("apex-server: recover catalog: %v", err)
		}
		for _, s := range skipped {
			log.Printf("apex-server: catalog entry not recovered: %s", s)
		}
		for _, rec := range recovered {
			log.Printf("apex-server: dataset %q recovered from %s: %d rows, storage=%s, took %s",
				rec.Name, rec.Source, rec.Rows, rec.Mode, rec.Elapsed.Round(time.Microsecond))
		}
	}

	for _, spec := range o.datasets {
		name, files, ok := strings.Cut(spec, "=")
		if !ok {
			log.Fatalf("apex-server: -dataset %q: want name=data.csv,schema.file", spec)
		}
		csvPath, schemaPath, ok := strings.Cut(files, ",")
		if !ok {
			log.Fatalf("apex-server: -dataset %q: want name=data.csv,schema.file", spec)
		}
		if _, exists := reg.Get(name); exists {
			// Recovered from the catalog; the durable copy wins so live
			// sessions never see their table change across a restart.
			log.Printf("apex-server: dataset %q already recovered from %s; ignoring -dataset files", name, o.dataDir)
			continue
		}
		if err := reg.LoadFiles(name, csvPath, schemaPath); err != nil {
			log.Fatalf("apex-server: %v", err)
		}
		ds, _ := reg.Dataset(name)
		log.Printf("apex-server: dataset %q loaded: %d rows, %d attributes, took %s (%s)",
			name, ds.Table.Size(), ds.Table.Schema().Arity(), ds.Load.Took.Round(time.Microsecond), ds.Load)
	}
	if len(reg.Names()) == 0 {
		log.Printf("apex-server: starting with no datasets; register them via POST /v1/datasets")
	}

	srv := server.New(reg, server.Config{
		MaxBudget:   o.maxBudget,
		MaxSessions: o.maxSessions,
		AllowSeeds:  o.allowSeeds,
		Store:       st,
		Sched:       sched.Config{QueueDepth: o.queueDepth},
		Trace: server.TraceConfig{
			Disable:   o.disableTracing,
			SlowQuery: o.slowQuery,
		},
		Scrub: server.ScrubConfig{
			Interval:        o.scrubInterval,
			ReadBytesPerSec: o.scrubRate << 20,
		},
		Analytics: server.AnalyticsConfig{
			Disable:            o.disableAnalytics,
			TimeseriesInterval: o.tsInterval,
			Recorder: analytics.RecorderConfig{
				Dir:                incidentDir(o.dataDir),
				CPUProfileDuration: o.recProfile,
				Cooldown:           o.recCooldown,
			},
		},
	})
	if dir := incidentDir(o.dataDir); dir != "" && !o.disableAnalytics {
		log.Printf("apex-server: flight recorder ready: bundles under %s (triggers off until set via PUT /v1/debug/config)", dir)
	}
	if o.scrubInterval > 0 {
		log.Printf("apex-server: background scrubber on: cycle every %s, reads paced at %d MiB/s", o.scrubInterval, o.scrubRate)
	}

	// The debug listener is opt-in and separate from the public one, so
	// profiling endpoints (pprof can dump heap contents) never share a
	// port with analyst traffic. Enabling it also registers the Go runtime
	// gauges (goroutines, heap, GC pauses) into the metrics registry.
	if o.debugAddr != "" {
		obs.RegisterRuntimeMetrics(srv.Metrics())
		dbg := &http.Server{Addr: o.debugAddr, Handler: obs.DebugHandler(srv.Metrics())}
		go func() {
			log.Printf("apex-server: debug listener (pprof + metrics) on %s", o.debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("apex-server: debug listener: %v", err)
			}
		}()
	}

	// Recovery phase 2: session logs. Torn tails are repaired to the
	// last valid frame; transcripts that fail Definition 6.1 validation
	// are quarantined, never served.
	if st != nil {
		restored, skipped, err := srv.RecoverSessions(st)
		if err != nil {
			log.Fatalf("apex-server: recover sessions: %v", err)
		}
		for _, s := range skipped {
			log.Printf("apex-server: session not restored: %s", s)
		}
		if restored > 0 {
			log.Printf("apex-server: %d session(s) restored with remaining budgets intact", restored)
		}
	}

	httpSrv := &http.Server{Addr: o.listen, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("apex-server: listening on %s (datasets: %s, durability: %s)",
		o.listen, datasetList(reg), durabilityDesc(o.dataDir))

	// Graceful shutdown: stop accepting, drain in-flight asks — each
	// handler blocks until its queued query executes and commits to its
	// WAL, so an exhausted drain means the scheduler queues are empty —
	// then close the scheduler (rejecting, never dropping, anything a
	// timed-out drain left queued-but-unstarted) and flush every session
	// log.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-errCh:
		log.Fatalf("apex-server: %v", err)
	case <-ctx.Done():
		stop()
		log.Printf("apex-server: signal received; draining in-flight requests (up to %s)", drainTimeout)
		drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Scheduler().Drain(drainCtx); err != nil {
			log.Printf("apex-server: scheduler drain: %v (queued work will be rejected, not dropped)", err)
		}
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			log.Printf("apex-server: drain: %v", err)
		}
		if err := srv.Shutdown(); err != nil {
			log.Printf("apex-server: flush session logs: %v", err)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("apex-server: %v", err)
		}
		log.Printf("apex-server: shutdown complete")
		os.Exit(0)
	}
}

func datasetList(reg *server.Registry) string {
	names := reg.Names()
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, ", ")
}

// incidentDir places flight-recorder bundles under the durable data
// directory; without one the recorder stays off.
func incidentDir(dataDir string) string {
	if dataDir == "" {
		return ""
	}
	return filepath.Join(dataDir, "incidents")
}

func durabilityDesc(dataDir string) string {
	if dataDir == "" {
		return "none (in-memory)"
	}
	return dataDir
}
