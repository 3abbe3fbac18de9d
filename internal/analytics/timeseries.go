package analytics

import (
	"sync"
	"time"
)

// Sample is one self-snapshot: a timestamp plus a flat map of named
// gauge values (latency quantiles in milliseconds, queue depths,
// runtime stats, cumulative counters).
type Sample struct {
	At     time.Time          `json:"at"`
	Values map[string]float64 `json:"values"`
}

// Timeseries is the in-process history ring: a paced sampler snapshots
// registered sources into a bounded window, so GET /v1/debug/timeseries
// can show the last N minutes of key gauges without an external scraper.
// A nil *Timeseries ignores every call.
type Timeseries struct {
	interval time.Duration

	mu      sync.Mutex
	sources []func(put func(name string, v float64))
	onTick  []func(now time.Time)
	ring    []Sample
	next    int
	filled  bool

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	exited    chan struct{} // closed once the sampling goroutine has returned
}

// Default sampling shape: one sample per second over a ten-minute window.
const (
	DefaultWindow   = 600
	DefaultInterval = time.Second
)

// NewTimeseries builds a ring of window samples paced at interval.
// window <= 0 means DefaultWindow; interval <= 0 means DefaultInterval.
func NewTimeseries(window int, interval time.Duration) *Timeseries {
	if window <= 0 {
		window = DefaultWindow
	}
	if interval <= 0 {
		interval = DefaultInterval
	}
	return &Timeseries{
		interval: interval,
		ring:     make([]Sample, window),
		stop:     make(chan struct{}),
		exited:   make(chan struct{}),
	}
}

// AddSource registers a sampler invoked on every tick; it reports values
// through put. Register sources before Start.
func (ts *Timeseries) AddSource(f func(put func(name string, v float64))) {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.sources = append(ts.sources, f)
}

// OnTick registers a hook run after each sample lands — the flight
// recorder's threshold checks ride the sampler's pace through it.
func (ts *Timeseries) OnTick(f func(now time.Time)) {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.onTick = append(ts.onTick, f)
}

// Start launches the sampling loop. Idempotent.
func (ts *Timeseries) Start() {
	if ts == nil {
		return
	}
	ts.startOnce.Do(func() {
		go func() {
			defer close(ts.exited)
			t := time.NewTicker(ts.interval)
			defer t.Stop()
			for {
				select {
				case now := <-t.C:
					ts.Tick(now)
				case <-ts.stop:
					return
				}
			}
		}()
	})
}

// Stop halts the sampling loop and waits for it to exit. Idempotent;
// safe even if Start was never called.
func (ts *Timeseries) Stop() {
	if ts == nil {
		return
	}
	ts.stopOnce.Do(func() { close(ts.stop) })
	ts.startOnce.Do(func() { close(ts.exited) }) // never started: unblock the wait
	<-ts.exited
}

// Tick takes one sample at now. Exported so tests (and callers that pace
// themselves) can drive the ring deterministically.
func (ts *Timeseries) Tick(now time.Time) {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	sources := ts.sources
	hooks := ts.onTick
	ts.mu.Unlock()

	s := Sample{At: now.UTC(), Values: make(map[string]float64, 16)}
	put := func(name string, v float64) { s.Values[name] = v }
	for _, f := range sources {
		f(put)
	}

	ts.mu.Lock()
	ts.ring[ts.next] = s
	ts.next++
	if ts.next == len(ts.ring) {
		ts.next = 0
		ts.filled = true
	}
	ts.mu.Unlock()

	for _, h := range hooks {
		h(now)
	}
}

// Snapshot returns up to n of the most recent samples, oldest first
// (plot-ready); n <= 0 returns the whole window.
func (ts *Timeseries) Snapshot(n int) []Sample {
	if ts == nil {
		return []Sample{}
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	have := ts.next
	if ts.filled {
		have = len(ts.ring)
	}
	if n <= 0 || n > have {
		n = have
	}
	out := make([]Sample, 0, n)
	for i := have - n; i < have; i++ {
		idx := i
		if ts.filled {
			idx = (ts.next + (len(ts.ring) - have) + i) % len(ts.ring)
		}
		out = append(out, ts.ring[idx])
	}
	return out
}

// Interval returns the sampler pace.
func (ts *Timeseries) Interval() time.Duration {
	if ts == nil {
		return 0
	}
	return ts.interval
}
