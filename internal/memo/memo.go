// Package memo is the one once-per-key cache behind the server's shared
// state: workload transformations and their noise-free evaluations,
// translation plans and column-set projections. A value is built at most
// once per key; concurrent askers of a key being built wait for that build
// and share its result, an error included. Finished entries are held
// within a bound in caller-chosen cost units (a count, or bytes), and the
// least recently used is dropped first — never an entry still being built,
// never the one just finished, and never the whole cache at once.
package memo

import (
	"container/list"
	"sync"
)

// Cache maps keys to values built at most once each. Create one with New.
type Cache[K comparable, V any] struct {
	bound int64

	mu    sync.Mutex
	m     map[K]*Entry[K, V] // made by the first Claim
	lru   list.List          // finished entries, most recently used first
	stats Stats
}

// Entry is one key's slot: in flight from the Claim that created it until
// Finish, final afterwards.
type Entry[K comparable, V any] struct {
	key  K
	done chan struct{} // closed by Finish
	val  V
	err  error
	cost int64
	elem *list.Element // in the cache's lru; nil while in flight or once dropped
}

// Stats snapshots a cache's counters.
type Stats struct {
	// Hits counts Claims (and Gets) that found their key's entry, finished
	// or still being built.
	Hits int64
	// Builds counts Claims that created an entry.
	Builds int64
	// Evictions counts finished entries dropped to fit the bound.
	Evictions int64
	// Held is the cost of the finished entries held now.
	Held int64
}

// New returns an empty cache holding finished entries of at most bound
// total cost — or, when one entry alone costs more, that entry until the
// next one finishes. Beyond the Cache itself it allocates nothing until
// the first Claim.
func New[K comparable, V any](bound int64) *Cache[K, V] {
	return &Cache[K, V]{bound: bound}
}

// Get returns k's value, building it with build when no entry holds k;
// build also returns the value's cost. Concurrent Gets of a key being
// built wait for that one build. A failed build is cached like a value:
// its error is every asker's until the entry is evicted.
func (c *Cache[K, V]) Get(k K, build func() (V, int64, error)) (V, error) {
	e, claimed := c.Claim(k)
	if claimed {
		v, cost, err := build()
		c.Finish(e, v, cost, err)
	}
	return e.Wait()
}

// Claim returns k's entry and whether this call created it. A created
// entry is in flight: the caller must build its value and pass it to
// Finish, and everyone else who claims k meanwhile Waits on it. Finding an
// entry counts as a use.
func (c *Cache[K, V]) Claim(k K) (e *Entry[K, V], claimed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e = c.m[k]; e != nil {
		c.stats.Hits++
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		return e, false
	}
	if c.m == nil {
		c.m = make(map[K]*Entry[K, V])
	}
	e = &Entry[K, V]{key: k, done: make(chan struct{})}
	c.m[k] = e
	c.stats.Builds++
	return e, true
}

// Finish publishes the result of an entry this caller claimed and wakes
// its waiters. Unless the entry was forgotten meanwhile, it becomes the
// most recently used, and least recently used finished entries — never
// this one — are evicted until the held cost fits the bound.
func (c *Cache[K, V]) Finish(e *Entry[K, V], v V, cost int64, err error) {
	e.val, e.err, e.cost = v, err, cost
	c.mu.Lock()
	if c.m[e.key] == e {
		e.elem = c.lru.PushFront(e)
		c.stats.Held += cost
		for c.stats.Held > c.bound && c.lru.Len() > 1 {
			c.drop(c.lru.Back().Value.(*Entry[K, V]))
			c.stats.Evictions++
		}
	}
	c.mu.Unlock()
	close(e.done)
}

// Wait blocks until the entry is finished and returns its result.
func (e *Entry[K, V]) Wait() (V, error) {
	<-e.done
	return e.val, e.err
}

// Peek returns k's value if its entry is finished, without creating an
// entry, waiting or counting as a use. ok is also true for a failed build,
// whose value is V's zero.
func (c *Cache[K, V]) Peek(k K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.m[k]; e != nil && e.elem != nil {
		return e.val, true
	}
	return v, false
}

// Forget drops k's entry. Askers already holding it keep its result; one
// still in flight finishes for them alone.
func (c *Cache[K, V]) Forget(k K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.m[k]; e != nil {
		c.drop(e)
	}
}

// drop removes e from the map and, if finished, from the held set. Called
// with mu held.
func (c *Cache[K, V]) drop(e *Entry[K, V]) {
	delete(c.m, e.key)
	if e.elem != nil {
		c.lru.Remove(e.elem)
		e.elem = nil
		c.stats.Held -= e.cost
	}
}

// Len returns the number of entries, finished or in flight.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Range calls f for every finished entry whose build succeeded, most
// recently used first, until f returns false. It iterates a snapshot, so
// f may call back into the cache; it does not count as a use.
func (c *Cache[K, V]) Range(f func(k K, v V) bool) {
	c.mu.Lock()
	entries := make([]*Entry[K, V], 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*Entry[K, V]); e.err == nil {
			entries = append(entries, e)
		}
	}
	c.mu.Unlock()
	for _, e := range entries {
		if !f(e.key, e.val) {
			return
		}
	}
}

// Stats returns the cache's counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
