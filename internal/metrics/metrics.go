// Package metrics is a small, dependency-free metrics registry exposing
// counters, gauges and histograms in the Prometheus text exposition
// format. The server uses it for the observability the scheduler refactor
// introduces: per-mechanism latency histograms, per-dataset queue-depth
// and batch-size series, and privacy-budget spend histograms, all served
// at /metrics.
//
// Series are identified by a metric name plus an ordered label list, as
// in Prometheus. Lookup allocates, so hot paths should resolve a series
// once and hold the pointer; Counter/Gauge/Histogram return the same
// instance for the same (name, labels) every time.
package metrics

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value pair qualifying a series.
type Label struct {
	Name, Value string
}

// L is shorthand for building a label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Registry holds metric families and renders them for scraping. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // registration order for stable output

	cmu        sync.Mutex
	collectors []func()
}

type family struct {
	name, help, typ string
	buckets         []float64 // histograms only
	mu              sync.Mutex
	series          map[string]metric // key: rendered label set
	order           []string
}

type metric interface {
	render(sb *strings.Builder, name, labels string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help, typ string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, buckets: buckets, series: make(map[string]metric)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	return f
}

func (f *family) get(labels []Label, mk func() metric) metric {
	key := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.series[key]
	if !ok {
		m = mk()
		f.series[key] = m
		f.order = append(f.order, key)
	}
	return m
}

// Counter is a monotonically increasing float64.
type Counter struct{ bits atomic.Uint64 }

// Add increases the counter by v (v must be >= 0).
func (c *Counter) Add(v float64) { atomicAdd(&c.bits, v) }

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// AdvanceTo raises the counter to v. It publishes, at scrape time, a
// total another component owns and keeps monotone, so the rendered series
// stays a true counter (rate() semantics) rather than a gauge snapshot; a
// v at or below the current count changes nothing.
func (c *Counter) AdvanceTo(v float64) {
	if delta := v - c.Value(); delta > 0 {
		c.Add(delta)
	}
}

func (c *Counter) render(sb *strings.Builder, name, labels string) {
	fmt.Fprintf(sb, "%s%s %s\n", name, labels, formatFloat(c.Value()))
}

// Gauge is an arbitrary float64 value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by v (may be negative).
func (g *Gauge) Add(v float64) { atomicAdd(&g.bits, v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) render(sb *strings.Builder, name, labels string) {
	fmt.Fprintf(sb, "%s%s %s\n", name, labels, formatFloat(g.Value()))
}

// Histogram counts observations into cumulative buckets, Prometheus
// style, with a sum and a total count.
type Histogram struct {
	mu      sync.Mutex
	buckets []float64 // upper bounds, ascending; +Inf is implicit
	counts  []uint64  // len(buckets)+1, last is the +Inf bucket
	sum     float64
	total   uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.buckets, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.total++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// HistogramSnapshot is one consistent read of a histogram: bucket upper
// bounds (ascending, +Inf implicit), per-bucket counts (len(Buckets)+1,
// last is the overflow bucket), sum and total.
type HistogramSnapshot struct {
	Buckets []float64
	Counts  []uint64
	Sum     float64
	Total   uint64
}

// Snapshot copies the histogram's state under one lock hold, so quantile
// estimates and delta computations see buckets, sum and total from the
// same instant.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Buckets: h.buckets, // immutable after construction
		Counts:  append([]uint64(nil), h.counts...),
		Sum:     h.sum,
		Total:   h.total,
	}
}

// Quantile estimates the q-quantile (0 <= q <= 1) the way Prometheus'
// histogram_quantile does: find the bucket holding the target rank and
// interpolate linearly within it. Observations in the overflow bucket
// clamp to the highest finite bound. Returns 0 on an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Total == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Total)
	var cum float64
	for i, ub := range s.Buckets {
		prev := cum
		cum += float64(s.Counts[i])
		if cum >= rank {
			lo := 0.0
			if i > 0 {
				lo = s.Buckets[i-1]
			}
			if s.Counts[i] == 0 {
				return ub
			}
			return lo + (ub-lo)*(rank-prev)/float64(s.Counts[i])
		}
	}
	return s.Buckets[len(s.Buckets)-1]
}

// Quantile is Snapshot().Quantile(q) — a convenience for one-off reads.
func (h *Histogram) Quantile(q float64) float64 {
	return h.Snapshot().Quantile(q)
}

func (h *Histogram) render(sb *strings.Builder, name, labels string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var cum uint64
	for i, ub := range h.buckets {
		cum += h.counts[i]
		fmt.Fprintf(sb, "%s_bucket%s %d\n", name, bucketLabels(labels, formatFloat(ub)), cum)
	}
	cum += h.counts[len(h.buckets)]
	fmt.Fprintf(sb, "%s_bucket%s %d\n", name, bucketLabels(labels, "+Inf"), cum)
	fmt.Fprintf(sb, "%s_sum%s %s\n", name, labels, formatFloat(h.sum))
	fmt.Fprintf(sb, "%s_count%s %d\n", name, labels, h.total)
}

// Counter returns (creating on first use) the counter series for the
// given name and labels. Help is recorded on first use of the name.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.family(name, help, "counter", nil)
	return f.get(labels, func() metric { return &Counter{} }).(*Counter)
}

// Gauge returns (creating on first use) the gauge series for the given
// name and labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.family(name, help, "gauge", nil)
	return f.get(labels, func() metric { return &Gauge{} }).(*Gauge)
}

// Histogram returns (creating on first use) the histogram series for the
// given name and labels. The bucket bounds are fixed by the first call
// for a name; later calls reuse them.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	f := r.family(name, help, "histogram", buckets)
	return f.get(labels, func() metric {
		return &Histogram{buckets: f.buckets, counts: make([]uint64, len(f.buckets)+1)}
	}).(*Histogram)
}

// ExpBuckets returns n exponential bucket bounds starting at start and
// multiplying by factor — the usual latency-histogram shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// OnScrape registers a collector invoked at the start of every Render —
// the hook for gauges whose truth lives elsewhere (resident-set sizes,
// page-fault counts) and is only worth computing when someone scrapes.
// Collectors run outside the registry lock and update series normally.
func (r *Registry) OnScrape(f func()) {
	r.cmu.Lock()
	defer r.cmu.Unlock()
	r.collectors = append(r.collectors, f)
}

// Render writes every family in the Prometheus text exposition format.
func (r *Registry) Render() string {
	r.cmu.Lock()
	collectors := append([]func(){}, r.collectors...)
	r.cmu.Unlock()
	for _, f := range collectors {
		f()
	}

	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	var sb strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, key := range f.order {
			f.series[key].render(&sb, f.name, key)
		}
		f.mu.Unlock()
	}
	return sb.String()
}

// Handler serves the registry at its mount point (conventionally
// /metrics) in the text exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(r.Render()))
	})
}

// renderLabels renders a sorted {k="v",...} label set ("" when empty).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l.Name, l.Value)
	}
	sb.WriteByte('}')
	return sb.String()
}

// bucketLabels splices le="bound" into an existing rendered label set.
func bucketLabels(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// formatFloat renders a float the way Prometheus clients do.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// atomicAdd adds v to a float64 stored as uint64 bits.
func atomicAdd(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}
