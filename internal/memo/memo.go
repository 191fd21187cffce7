// Package memo provides a concurrency-safe, bounded memoization cache
// with single-flight semantics: when several goroutines request the
// same key at once, exactly one computes the value and the rest wait
// for it. The analysis engine uses it to share receiver
// pre-characterization tables and driver characterizations across
// concurrently analyzed nets.
//
// A cache holds at most 2·MaxEntries entries in two generations. New
// entries go into the newer generation; a hit in the older one moves
// the entry to the newer one; and when the newer generation reaches
// MaxEntries it becomes the older one, dropping the previous older
// generation whole. An entry hit at least once in every MaxEntries
// insertions therefore stays resident, and the memory of a long-lived
// cache does not grow with the number of distinct keys it has seen.
package memo

import (
	"sync"

	"repro/internal/metrics"
)

// MaxEntries is the size of one generation. It is well above what one
// analysis session of the repository's workloads computes (a batch
// round or a served replica makes at most a few hundred entries per
// cache), so none of them evicts.
const MaxEntries = 1024

// entry is one key's slot. done is closed once the computation finishes;
// val/err are immutable afterwards.
type entry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Cache memoizes the results of a keyed computation. The zero value is
// not usable; construct with New. All methods are safe for concurrent
// use and tolerate a nil receiver (a nil cache never caches).
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	cur, old map[K]*entry[V]
	entries  *metrics.Gauge
}

// New returns an empty cache. entries, which may be nil, follows the
// number of resident entries.
func New[K comparable, V any](entries *metrics.Gauge) *Cache[K, V] {
	return &Cache[K, V]{cur: map[K]*entry[V]{}, entries: entries}
}

// lookup returns key's resident entry, moving it into the newer
// generation when the older one holds it. c.mu must be held.
func (c *Cache[K, V]) lookup(key K) (*entry[V], bool) {
	if e, ok := c.cur[key]; ok {
		return e, true
	}
	e, ok := c.old[key]
	if ok {
		delete(c.old, key)
		c.put(key, e)
	}
	return e, ok
}

// put inserts e into the newer generation, first retiring it to the
// older one when it is full. c.mu must be held.
func (c *Cache[K, V]) put(key K, e *entry[V]) {
	if len(c.cur) >= MaxEntries {
		c.old, c.cur = c.cur, map[K]*entry[V]{}
	}
	c.cur[key] = e
	c.entries.Set(int64(len(c.cur) + len(c.old)))
}

// Do returns the cached value for key, computing it with fn on first
// use. Concurrent callers of the same key share one fn execution; hit
// reports whether this caller reused (or waited on) another's work.
// Failed computations are not cached: the waiting callers receive the
// error, and later callers retry fn. A waiter receives the value even
// if its entry is evicted while in flight.
func (c *Cache[K, V]) Do(key K, fn func() (V, error)) (v V, hit bool, err error) {
	if c == nil {
		v, err = fn()
		return v, false, err
	}
	c.mu.Lock()
	if e, ok := c.lookup(key); ok {
		c.mu.Unlock()
		<-e.done
		return e.val, true, e.err
	}
	e := &entry[V]{done: make(chan struct{})}
	c.put(key, e)
	c.mu.Unlock()

	e.val, e.err = fn()
	if e.err != nil {
		// Drop the failed entry so later callers retry, but only after
		// publishing the error to current waiters, and only where it is
		// still resident.
		c.mu.Lock()
		if c.cur[key] == e {
			delete(c.cur, key)
		} else if c.old[key] == e {
			delete(c.old, key)
		}
		c.entries.Set(int64(len(c.cur) + len(c.old)))
		c.mu.Unlock()
	}
	close(e.done)
	return e.val, false, e.err
}

// Snapshot copies out every resident completed, successful entry — the
// state worth persisting to a warm-start store. In-flight and failed
// entries are skipped. The returned map is the caller's; values are
// shared (the cache's values are treated as immutable everywhere).
func (c *Cache[K, V]) Snapshot() map[K]V {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	entries := make(map[K]*entry[V], len(c.cur)+len(c.old))
	for _, gen := range []map[K]*entry[V]{c.old, c.cur} {
		for k, e := range gen {
			entries[k] = e
		}
	}
	c.mu.Unlock()
	out := make(map[K]V, len(entries))
	for k, e := range entries {
		select {
		case <-e.done:
			if e.err == nil {
				out[k] = e.val
			}
		default:
		}
	}
	return out
}

// Seed installs a precomputed value for key — the warm-start inverse of
// Snapshot — as a new entry would be. A resident entry (completed or in
// flight) wins: seeding never clobbers fresher work.
func (c *Cache[K, V]) Seed(key K, val V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.lookup(key); ok {
		return
	}
	e := &entry[V]{done: make(chan struct{}), val: val}
	close(e.done)
	c.put(key, e)
}

// Len returns the number of resident entries (including in-flight ones).
func (c *Cache[K, V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cur) + len(c.old)
}
