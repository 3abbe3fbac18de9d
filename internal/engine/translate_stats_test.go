package engine

import (
	"context"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/noise"
	"repro/internal/query"
	"repro/internal/translate"
)

// TestTranslateStatsPerRequest pins what one served request moves on the
// shared translation cache's counters — the numbers behind the
// benchmark's translate.miss_count and translate.hit_ratio. The
// scheduler's path is warm (TranslationNeeds → TranslateBatch), then
// Prepare's Translate, then Execute's Run, and only the warm counts: a
// fresh matrix is one miss and no hit, a cached one one hit — so the hit
// ratio is the share of requests that found their plan. An unwarmed Ask
// computes inside Translate (one miss) and counts nothing when it repeats.
func TestTranslateStatsPerRequest(t *testing.T) {
	d := testTable(t, []int{100, 200, 300, 400, 100, 200, 300, 400})
	req := accuracy.Requirement{Alpha: 25, Beta: 0.05}
	cache := translate.NewCache("")
	e, err := New(d, Config{Budget: 100, Rng: noise.NewRand(7), Translations: cache})
	if err != nil {
		t.Fatal(err)
	}
	delta := func(f func() *Answer) translate.Stats {
		t.Helper()
		before := cache.Stats()
		if ans := f(); ans.Mechanism != "SM-h2" {
			t.Fatalf("answered by %s, want SM-h2 (the fixture must exercise the cache in Run)", ans.Mechanism)
		}
		after := cache.Stats()
		return translate.Stats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}
	}
	served := func(q *query.Query) func() *Answer {
		return func() *Answer {
			t.Helper()
			for _, n := range e.TranslationNeeds(q) {
				n.Source.TranslateBatch([]translate.Item{n.Item})
			}
			ctx := context.Background()
			plan, _, err := e.Prepare(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			ans, err := e.Commit(ctx, plan, e.Execute(ctx, plan))
			if err != nil {
				t.Fatal(err)
			}
			return ans
		}
	}
	q := prefixQuery(t, 8, req)
	if got, want := delta(served(q)), (translate.Stats{Misses: 1}); got != want {
		t.Errorf("fresh matrix, warmed: %+v, want %+v", got, want)
	}
	if got, want := delta(served(q)), (translate.Stats{Hits: 1}); got != want {
		t.Errorf("cached matrix, warmed: %+v, want %+v", got, want)
	}
	unwarmed := func() *Answer {
		ans, err := e.Ask(prefixQuery(t, 4, req))
		if err != nil {
			t.Fatal(err)
		}
		return ans
	}
	if got, want := delta(unwarmed), (translate.Stats{Misses: 1}); got != want {
		t.Errorf("fresh matrix, unwarmed Ask: %+v, want %+v", got, want)
	}
	if got, want := delta(unwarmed), (translate.Stats{}); got != want {
		t.Errorf("cached matrix, unwarmed Ask: %+v, want %+v", got, want)
	}
}
