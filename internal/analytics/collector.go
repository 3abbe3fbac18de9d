package analytics

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// Config tunes a Collector.
type Config struct {
	// TopK bounds the session and workload heavy-hitter sketches; <= 0
	// means DefaultTopK.
	TopK int
}

// DefaultTopK is the default sketch capacity per dimension.
const DefaultTopK = 64

// Collector folds finished request traces into the workload cost
// economy: exact per-dataset aggregates plus SpaceSaving top-K sketches
// over sessions and canonical workloads. Wire Observe as the tracer's
// OnFinish hook. A nil *Collector ignores every call.
type Collector struct {
	mu        sync.Mutex
	topk      int
	total     CostVector
	datasets  map[string]*CostVector
	sessions  *topK
	workloads *topK
}

// NewCollector builds a Collector.
func NewCollector(cfg Config) *Collector {
	k := cfg.TopK
	if k <= 0 {
		k = DefaultTopK
	}
	return &Collector{
		topk:      k,
		datasets:  make(map[string]*CostVector),
		sessions:  newTopK(k),
		workloads: newTopK(k),
	}
}

// Observe extracts one finished trace's cost vector and folds it into
// every aggregate. Traces without a dataset tag (control plane, debug
// endpoints) are ignored. The signature matches obs.Config.OnFinish.
func (c *Collector) Observe(v obs.TraceView) {
	if c == nil {
		return
	}
	rc, ok := ExtractCost(v)
	if !ok {
		return
	}
	cpuSec := float64(rc.Vector.CPUNanos) / 1e9
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total.Add(rc.Vector)
	agg := c.datasets[rc.Dataset]
	if agg == nil {
		agg = &CostVector{}
		c.datasets[rc.Dataset] = agg
	}
	agg.Add(rc.Vector)
	if rc.Session != "" {
		c.sessions.observe(rc.Session, cpuSec, &rc)
	}
	if rc.Workload != "" {
		c.workloads.observe(rc.Workload, cpuSec, &rc)
	}
}

// Total returns the cost vector folded over every observed request.
func (c *Collector) Total() CostVector {
	if c == nil {
		return CostVector{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Dataset returns one dataset's aggregate cost vector.
func (c *Collector) Dataset(name string) CostVector {
	if c == nil {
		return CostVector{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if agg := c.datasets[name]; agg != nil {
		return *agg
	}
	return CostVector{}
}

// Top returns up to k heavy hitters for one dimension ("dataset",
// "session" or "workload"), heaviest attributed CPU first. The dataset
// dimension is exact (one aggregate per registered dataset); the session
// and workload dimensions come from the SpaceSaving sketches and carry
// per-entry overestimation bounds.
func (c *Collector) Top(dimension string, k int) ([]TopEntry, error) {
	if c == nil {
		return []TopEntry{}, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch dimension {
	case "dataset":
		out := make([]TopEntry, 0, len(c.datasets))
		for name, agg := range c.datasets {
			out = append(out, TopEntry{
				Key:              name,
				WeightCPUSeconds: float64(agg.CPUNanos) / 1e9,
				Cost:             *agg,
			})
		}
		sortEntries(out)
		if k > 0 && len(out) > k {
			out = out[:k]
		}
		return out, nil
	case "session":
		return c.sessions.top(k), nil
	case "workload":
		return c.workloads.top(k), nil
	default:
		return nil, fmt.Errorf("analytics: unknown dimension %q (want dataset, session or workload)", dimension)
	}
}

func sortEntries(out []TopEntry) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].WeightCPUSeconds != out[j].WeightCPUSeconds {
			return out[i].WeightCPUSeconds > out[j].WeightCPUSeconds
		}
		return out[i].Key < out[j].Key
	})
}

// Publish registers the apex_analytics_* metric families into reg,
// collected at scrape time (the OnScrape idiom: the truth lives in the
// collector's aggregates). datasets supplies the names that must always
// have series — typically the server's dataset registry — so the families
// exist with zero values from the first scrape, before any query ran.
func (c *Collector) Publish(reg *metrics.Registry, datasets func() []string) {
	if c == nil || reg == nil {
		return
	}
	reg.OnScrape(func() {
		names := map[string]bool{}
		if datasets != nil {
			for _, n := range datasets() {
				names[n] = true
			}
		}
		c.mu.Lock()
		for n := range c.datasets {
			names[n] = true
		}
		aggs := make(map[string]CostVector, len(names))
		for n := range names {
			if agg := c.datasets[n]; agg != nil {
				aggs[n] = *agg
			} else {
				aggs[n] = CostVector{}
			}
		}
		c.mu.Unlock()
		for n, agg := range aggs {
			l := metrics.L("dataset", n)
			reg.Counter("apex_analytics_requests_total",
				"Requests attributed to the dataset by the analytics plane.", l).AdvanceTo(float64(agg.Requests))
			reg.Counter("apex_analytics_cpu_seconds_total",
				"Attributed processing time (prepare+execute+commit) per dataset.", l).AdvanceTo(float64(agg.CPUNanos) / 1e9)
			reg.Counter("apex_analytics_queue_seconds_total",
				"Attributed scheduler queue wait per dataset.", l).AdvanceTo(float64(agg.QueueNanos) / 1e9)
			reg.Counter("apex_analytics_translate_seconds_total",
				"Attributed Monte-Carlo translation time per dataset.", l).AdvanceTo(float64(agg.TranslateNanos) / 1e9)
			reg.Counter("apex_analytics_scan_bytes_total",
				"Per-request attributed shares of batched scan traffic (sums to apex_scan_bytes_total).", l).AdvanceTo(float64(agg.ScanBytes))
			reg.Counter("apex_analytics_epsilon_total",
				"Settled privacy loss attributed per dataset.", l).AdvanceTo(agg.Epsilon)
			reg.Counter("apex_analytics_denied_total",
				"Budget denials attributed per dataset.", l).AdvanceTo(float64(agg.Denied))
			reg.Counter("apex_analytics_cache_hits_total",
				"Requests whose prepare hit a cache, by cache plane.", l, metrics.L("cache", "transform")).AdvanceTo(float64(agg.TransformHits))
			reg.Counter("apex_analytics_cache_hits_total",
				"Requests whose prepare hit a cache, by cache plane.", l, metrics.L("cache", "translate")).AdvanceTo(float64(agg.TranslateHits))
			reg.Counter("apex_analytics_cache_hits_total",
				"Requests whose prepare hit a cache, by cache plane.", l, metrics.L("cache", "reuse")).AdvanceTo(float64(agg.ReuseHits))
		}
	})
}
