// Package memo provides a concurrency-safe memoization cache with
// single-flight semantics: when several goroutines request the same key
// at once, exactly one computes the value and the rest wait for it. The
// analysis engine uses it to share receiver pre-characterization tables,
// driver characterizations, and PRIMA reduced-order models across
// concurrently analyzed nets.
package memo

import "sync"

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
	mu sync.Mutex
	m  map[K]*entry[V]
}

// New returns an empty cache.
func New[K comparable, V any]() *Cache[K, V] {
	return &Cache[K, V]{m: map[K]*entry[V]{}}
}

// Do returns the cached value for key, computing it with fn on first
// use. Concurrent callers of the same key share one fn execution; hit
// reports whether this caller reused (or waited on) another's work.
// Failed computations are not cached: the waiting callers receive the
// error, and later callers retry fn.
func (c *Cache[K, V]) Do(key K, fn func() (V, error)) (v V, hit bool, err error) {
	if c == nil {
		v, err = fn()
		return v, false, err
	}
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		c.mu.Unlock()
		<-e.done
		return e.val, true, e.err
	}
	e := &entry[V]{done: make(chan struct{})}
	c.m[key] = e
	c.mu.Unlock()

	e.val, e.err = fn()
	if e.err != nil {
		// Drop the failed entry so later callers retry, but only after
		// publishing the error to current waiters.
		c.mu.Lock()
		delete(c.m, key)
		c.mu.Unlock()
	}
	close(e.done)
	return e.val, false, e.err
}

// Snapshot copies out every completed, successful entry — the state
// worth persisting to a warm-start store. In-flight and failed entries
// are skipped. The returned map is the caller's; values are shared (the
// cache's values are treated as immutable everywhere).
func (c *Cache[K, V]) Snapshot() map[K]V {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	entries := make(map[K]*entry[V], len(c.m))
	for k, e := range c.m {
		entries[k] = e
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
// Snapshot. An existing entry (completed or in flight) wins: seeding
// never clobbers fresher work.
func (c *Cache[K, V]) Seed(key K, val V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; ok {
		return
	}
	e := &entry[V]{done: make(chan struct{}), val: val}
	close(e.done)
	c.m[key] = e
}

// Len returns the number of resident entries (including in-flight ones).
func (c *Cache[K, V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
