package memo

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoCachesValue(t *testing.T) {
	c := New[string, int](nil)
	calls := 0
	fn := func() (int, error) { calls++; return 42, nil }

	v, hit, err := c.Do("k", fn)
	if err != nil || v != 42 || hit {
		t.Fatalf("first Do = (%d, %v, %v)", v, hit, err)
	}
	v, hit, err = c.Do("k", fn)
	if err != nil || v != 42 || !hit {
		t.Fatalf("second Do = (%d, %v, %v)", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("fn called %d times", calls)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestSingleFlight(t *testing.T) {
	c := New[int, int](nil)
	var calls atomic.Int64
	gate := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	hits := make([]bool, n)
	vals := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, err := c.Do(7, func() (int, error) {
				calls.Add(1)
				<-gate // hold the computation open so everyone piles up
				return 99, nil
			})
			if err != nil {
				t.Error(err)
			}
			hits[i], vals[i] = hit, v
		}(i)
	}
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn executed %d times, want 1", got)
	}
	nHits := 0
	for i := range hits {
		if vals[i] != 99 {
			t.Fatalf("caller %d got %d", i, vals[i])
		}
		if hits[i] {
			nHits++
		}
	}
	if nHits != n-1 {
		t.Fatalf("%d hits for %d callers", nHits, n)
	}
}

func TestErrorNotCached(t *testing.T) {
	c := New[string, int](nil)
	boom := errors.New("boom")
	calls := 0
	_, _, err := c.Do("k", func() (int, error) { calls++; return 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed entry must not stay resident")
	}
	v, hit, err := c.Do("k", func() (int, error) { calls++; return 5, nil })
	if err != nil || v != 5 || hit {
		t.Fatalf("retry = (%d, %v, %v)", v, hit, err)
	}
	if calls != 2 {
		t.Fatalf("fn called %d times", calls)
	}
}

func TestGet(t *testing.T) {
	c := New[string, string](nil)
	if _, ok := c.Get("missing"); ok {
		t.Fatal("Get on empty cache")
	}
	c.Do("k", func() (string, error) { return "v", nil })
	v, ok := c.Get("k")
	if !ok || v != "v" {
		t.Fatalf("Get = (%q, %v)", v, ok)
	}
}

func TestNilCache(t *testing.T) {
	var c *Cache[string, int]
	v, hit, err := c.Do("k", func() (int, error) { return 3, nil })
	if err != nil || v != 3 || hit {
		t.Fatalf("nil Do = (%d, %v, %v)", v, hit, err)
	}
	if c.Len() != 0 {
		t.Fatal("nil Len")
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("nil Get")
	}
}

// Get returns the cached value for key if a completed, successful
// computation exists. It does not wait for in-flight computations.
func (c *Cache[K, V]) Get(key K) (v V, ok bool) {
	if c == nil {
		return v, false
	}
	c.mu.Lock()
	e, exists := c.cur[key]
	if !exists {
		e, exists = c.old[key]
	}
	c.mu.Unlock()
	if !exists {
		return v, false
	}
	select {
	case <-e.done:
		if e.err != nil {
			return v, false
		}
		return e.val, true
	default:
		return v, false
	}
}
