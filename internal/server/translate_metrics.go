package server

import (
	"repro/internal/metrics"
)

// registerTranslateMetrics exports the per-dataset Monte-Carlo
// translation-plane counters on /metrics, and the evictions of every
// shared cache a dataset keeps. The caches keep monotonic lifetime
// counts; the scrape hook advances each registry Counter to them so the
// exposition keeps the true counter type (and with it rate() semantics)
// instead of gauge snapshots.
func registerTranslateMetrics(reg *Registry, m *metrics.Registry) {
	m.OnScrape(func() {
		for _, ts := range reg.TranslateStats() {
			ds := metrics.L("dataset", ts.Name)
			m.Counter("apex_translate_cache_hits",
				"workload translations served from the shared plan cache (memory or sidecar)", ds).
				AdvanceTo(float64(ts.Stats.Hits))
			m.Counter("apex_translate_cache_misses",
				"workload translations that paid a fresh Monte-Carlo sampling pass", ds).
				AdvanceTo(float64(ts.Stats.Misses))
			m.Counter("apex_translate_cache_loads",
				"translation plans loaded from the dataset's sidecar at recovery", ds).
				AdvanceTo(float64(ts.Stats.Loads))
			m.Counter("apex_translate_cache_rebuilds",
				"corrupt translation sidecars quarantined and rebuilt from their valid prefix", ds).
				AdvanceTo(float64(ts.Stats.Rebuilds))
			d, ok := reg.Dataset(ts.Name)
			if !ok {
				continue
			}
			for _, c := range []struct {
				cache     string
				evictions int64
			}{
				{"transform", d.Transforms.Stats().Evictions},
				{"translate", ts.Stats.Evictions},
				{"projection", d.Table.ProjectionStats().Evictions},
			} {
				m.Counter("apex_cache_evictions_total",
					"entries a shared cache dropped, least recently used first, to stay within its bound: workload transformations with their memoized evaluations (transform), translation plans (translate), column-set projections (projection)",
					ds, metrics.L("cache", c.cache)).AdvanceTo(float64(c.evictions))
			}
		}
	})
}
