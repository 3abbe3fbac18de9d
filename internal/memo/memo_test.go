package memo

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// keys returns the keys of c's finished entries, most recently used first.
func keys(c *Cache[string, int]) []string {
	var out []string
	c.Range(func(k string, _ int) bool {
		out = append(out, k)
		return true
	})
	return out
}

func put(t *testing.T, c *Cache[string, int], k string, cost int64) {
	t.Helper()
	if _, err := c.Get(k, func() (int, int64, error) { return len(k), cost, nil }); err != nil {
		t.Fatal(err)
	}
}

// TestGetBuildsOnce: goroutines asking one cold key share one build and
// its value. Run under -race.
func TestGetBuildsOnce(t *testing.T) {
	c := New[string, int](10)
	const askers = 32
	var builds atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	vals := make([]int, askers)
	for g := 0; g < askers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Get("k", func() (int, int64, error) {
				builds.Add(1)
				<-release
				return 42, 1, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[g] = v
		}()
	}
	for st := c.Stats(); st.Hits+st.Builds < askers; st = c.Stats() {
		runtime.Gosched() // until every asker has claimed; the build is held open
	}
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds, want 1", n)
	}
	for g, v := range vals {
		if v != 42 {
			t.Fatalf("asker %d got %d", g, v)
		}
	}
	if st := c.Stats(); st.Builds != 1 || st.Hits != askers-1 {
		t.Fatalf("stats %+v, want 1 build and %d hits", st, askers-1)
	}
}

// TestWaitersShareTheError: a failed build is every waiter's result, and
// is cached like a value.
func TestWaitersShareTheError(t *testing.T) {
	c := New[string, int](10)
	boom := errors.New("boom")
	e, claimed := c.Claim("k")
	if !claimed {
		t.Fatal("cold key not claimed")
	}
	const waiters = 8
	errs := make(chan error, waiters)
	for g := 0; g < waiters; g++ {
		go func() {
			w, claimed := c.Claim("k")
			if claimed || w != e {
				errs <- errors.New("a waiter did not get the builder's entry")
				return
			}
			_, err := w.Wait()
			errs <- err
		}()
	}
	for c.Stats().Hits < waiters {
		runtime.Gosched()
	}
	c.Finish(e, 0, 1, boom)
	for g := 0; g < waiters; g++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("waiter got %v, want the builder's error", err)
		}
	}
	if _, err := c.Get("k", func() (int, int64, error) { t.Fatal("rebuilt a cached error"); return 0, 0, nil }); !errors.Is(err, boom) {
		t.Fatalf("later Get: %v, want the cached error", err)
	}
	if _, ok := c.Peek("k"); !ok {
		t.Fatal("Peek does not see a finished, failed entry")
	}
}

// TestInFlightNeverEvicted: an entry being built holds no cost and is
// never the one dropped, however many entries finish around it.
func TestInFlightNeverEvicted(t *testing.T) {
	c := New[string, int](2)
	e, _ := c.Claim("building")
	for _, k := range []string{"a", "b", "c", "d"} {
		put(t, c, k, 1)
	}
	if st := c.Stats(); st.Held != 2 || st.Evictions != 2 {
		t.Fatalf("stats %+v, want 2 held (the in-flight entry uncounted) and 2 evictions", st)
	}
	if w, claimed := c.Claim("building"); claimed || w != e {
		t.Fatal("the in-flight entry was dropped")
	}
	if _, ok := c.Peek("building"); ok {
		t.Fatal("Peek reports an in-flight entry as finished")
	}
	c.Finish(e, 7, 1, nil)
	if got := keys(c); !slices.Equal(got, []string{"building", "d"}) {
		t.Fatalf("held %v, want the just-finished entry and d", got)
	}
}

// TestOverBoundEntrySurvivesWhileNewest: an entry costing more than the
// whole bound is kept until the next entry finishes.
func TestOverBoundEntrySurvivesWhileNewest(t *testing.T) {
	c := New[string, int](10)
	put(t, c, "a", 3)
	put(t, c, "big", 25)
	if got := keys(c); !slices.Equal(got, []string{"big"}) {
		t.Fatalf("held %v, want only the oversized newest entry", got)
	}
	if st := c.Stats(); st.Held != 25 {
		t.Fatalf("held cost %d, want 25", st.Held)
	}
	put(t, c, "b", 1)
	if got := keys(c); !slices.Equal(got, []string{"b"}) {
		t.Fatalf("held %v, want the oversized entry gone once another finished", got)
	}
}

// TestLRUOrder: a use moves an entry to the front; the back goes first.
func TestLRUOrder(t *testing.T) {
	c := New[string, int](3)
	put(t, c, "a", 1)
	put(t, c, "b", 1)
	put(t, c, "c", 1)
	put(t, c, "a", 1) // a hit: a is now the most recently used
	put(t, c, "d", 1)
	if got := keys(c); !slices.Equal(got, []string{"d", "a", "c"}) {
		t.Fatalf("held %v, want d a c (b least recently used)", got)
	}
	if st := c.Stats(); st.Evictions != 1 || st.Hits != 1 || st.Builds != 4 {
		t.Fatalf("stats %+v", st)
	}
}

// TestPeekIsPassive: Peek creates no entry and does not refresh recency.
func TestPeekIsPassive(t *testing.T) {
	c := New[string, int](2)
	if _, ok := c.Peek("x"); ok || c.Len() != 0 {
		t.Fatal("Peek of a missing key found or created an entry")
	}
	put(t, c, "a", 1)
	put(t, c, "b", 1)
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %d, %v", v, ok)
	}
	put(t, c, "c", 1)
	if _, ok := c.Peek("a"); ok {
		t.Fatal("Peek refreshed a's recency: b was evicted instead")
	}
	if st := c.Stats(); st.Hits != 0 {
		t.Fatalf("Peek counted as a hit: %+v", st)
	}
}

// TestClaimExisting: claiming a held key returns its entry, unclaimed;
// Forget lets the next Claim create a fresh one.
func TestClaimExisting(t *testing.T) {
	c := New[string, int](4)
	e, claimed := c.Claim("k")
	if !claimed {
		t.Fatal("cold key not claimed")
	}
	c.Finish(e, 5, 1, nil)
	again, claimed := c.Claim("k")
	if claimed || again != e {
		t.Fatal("Claim of a held key did not return its entry")
	}
	if v, err := again.Wait(); v != 5 || err != nil {
		t.Fatalf("Wait = %d, %v", v, err)
	}
	c.Forget("k")
	if st := c.Stats(); st.Held != 0 || c.Len() != 0 {
		t.Fatalf("after Forget: %+v, %d entries", st, c.Len())
	}
	if fresh, claimed := c.Claim("k"); !claimed || fresh == e {
		t.Fatal("Claim after Forget returned the forgotten entry")
	}
}
