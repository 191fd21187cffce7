package memo

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// fill computes keys [from, to) into c, each valued by its key.
func fill(t *testing.T, c *Cache[int, int], from, to int) {
	t.Helper()
	for k := from; k < to; k++ {
		if _, _, err := c.Do(k, func() (int, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResidentEntriesBounded computes 10·MaxEntries distinct keys: the
// resident count never exceeds two generations, and the gauge follows
// it exactly.
func TestResidentEntriesBounded(t *testing.T) {
	reg := metrics.NewRegistry()
	g := reg.Gauge("entries")
	c := New[int, int](g)
	for k := 0; k < 10*MaxEntries; k++ {
		fill(t, c, k, k+1)
		n := c.Len()
		if n > 2*MaxEntries {
			t.Fatalf("after %d keys %d entries are resident, bound %d", k+1, n, 2*MaxEntries)
		}
		if g.Value() != int64(n) {
			t.Fatalf("after %d keys the gauge reads %d, resident %d", k+1, g.Value(), n)
		}
	}
	if c.Len() < MaxEntries {
		t.Fatalf("%d entries resident after %d keys, want at least one generation", c.Len(), 10*MaxEntries)
	}
	// Seeding obeys the same bound.
	for k := 0; k < 3*MaxEntries; k++ {
		c.Seed(-1-k, k)
	}
	if n := c.Len(); n > 2*MaxEntries || g.Value() != int64(n) {
		t.Fatalf("after seeding, %d entries resident (gauge %d), bound %d", n, g.Value(), 2*MaxEntries)
	}
}

// TestRecentlyHitKeySurvives keeps one key hot, hitting it every half
// generation, while 10·MaxEntries other keys pass through: it never
// recomputes, while a key computed once and never hit again is
// evicted.
func TestRecentlyHitKeySurvives(t *testing.T) {
	c := New[int, int](nil)
	const hot, cold = -1, -2
	calls := 0
	compute := func() (int, error) { calls++; return 7, nil }
	c.Do(hot, compute)
	c.Do(cold, compute)
	for k := 0; k < 10*MaxEntries; k += MaxEntries / 2 {
		fill(t, c, k, k+MaxEntries/2)
		if v, hit, _ := c.Do(hot, compute); !hit || v != 7 {
			t.Fatalf("after %d keys the hot key missed", k+MaxEntries/2)
		}
	}
	if calls != 2 {
		t.Fatalf("hot key computed %d times, want once", calls-1)
	}
	if _, hit, _ := c.Do(cold, compute); hit {
		t.Fatal("a key never hit again survived 10 generations")
	}
}

// TestInFlightWaitersGetValue attaches waiters to an in-flight entry,
// one each time the entry sits in the older generation (a waiter's
// lookup moves it back, which is how the test knows it attached), and
// then evicts the entry while it is still in flight: every waiter
// receives the computed value as a hit, and the evicted key computes
// afresh afterwards.
func TestInFlightWaitersGetValue(t *testing.T) {
	c := New[int, int](nil)
	const key, waiters = -1, 4
	started, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Do(key, func() (int, error) { close(started); <-release; return 42, nil })
	}()
	<-started
	// where reports whether the newer and the older generation hold
	// the key.
	where := func() (cur, old bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, cur = c.cur[key]
		_, old = c.old[key]
		return cur, old
	}
	vals := make([]int, waiters)
	hits := make([]bool, waiters)
	next := 0
	for w := 0; w < waiters; w++ {
		// Retire the in-flight entry to the older generation.
		fill(t, c, next, next+MaxEntries)
		next += MaxEntries
		if cur, old := where(); cur || !old {
			t.Fatal("a full generation did not retire the in-flight entry to the older one")
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vals[w], hits[w], _ = c.Do(key, func() (int, error) { return -1, nil })
		}(w)
		for cur, _ := where(); !cur; cur, _ = where() {
			runtime.Gosched()
		}
	}
	fill(t, c, next, next+2*MaxEntries)
	if cur, old := where(); cur || old {
		t.Fatal("the in-flight entry was not evicted")
	}
	close(release)
	wg.Wait()
	for w := range vals {
		if !hits[w] || vals[w] != 42 {
			t.Errorf("waiter %d got (%d, hit %v), want the in-flight value 42 as a hit", w, vals[w], hits[w])
		}
	}
	if v, hit, _ := c.Do(key, func() (int, error) { return 43, nil }); hit || v != 43 {
		t.Fatalf("evicted key = (%d, hit %v), want a fresh computation", v, hit)
	}
}

// TestSnapshotSeesEveryResidentEntry snapshots a cache whose entries
// span both generations: every resident entry appears with its value.
func TestSnapshotSeesEveryResidentEntry(t *testing.T) {
	c := New[int, int](nil)
	for _, n := range []int{MaxEntries / 2, MaxEntries + MaxEntries/2, 10 * MaxEntries} {
		fill(t, c, 0, n)
		snap := c.Snapshot()
		if len(snap) != c.Len() {
			t.Fatalf("after %d keys the snapshot holds %d of %d resident entries", n, len(snap), c.Len())
		}
		for k, v := range snap {
			if v != k {
				t.Fatalf("snapshot[%d] = %d", k, v)
			}
			if _, ok := c.Get(k); !ok {
				t.Fatalf("snapshot key %d is not resident", k)
			}
		}
	}
}
