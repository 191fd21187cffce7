package memo_test

import (
	"errors"
	"testing"

	"repro/internal/memo"
)

func TestSnapshotExportsCompletedSuccesses(t *testing.T) {
	c := memo.New[string, int](nil)
	if _, _, err := c.Do("a", func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Do("b", func() (int, error) { return 2, nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Do("bad", func() (int, error) { return 0, errors.New("boom") }); err == nil {
		t.Fatal("want error")
	}

	// An in-flight computation must be omitted, not waited for.
	enter := make(chan struct{})
	release := make(chan struct{})
	go c.Do("slow", func() (int, error) { close(enter); <-release; return 3, nil })
	<-enter

	snap := c.Snapshot()
	close(release)
	if len(snap) != 2 || snap["a"] != 1 || snap["b"] != 2 {
		t.Fatalf("Snapshot = %v, want {a:1 b:2}", snap)
	}
}

func TestSeedInstallsWithoutClobbering(t *testing.T) {
	c := memo.New[string, int](nil)
	c.Seed("warm", 10)
	v, hit, err := c.Do("warm", func() (int, error) {
		t.Fatal("seeded entry must not recompute")
		return 0, nil
	})
	if err != nil || !hit || v != 10 {
		t.Fatalf("Do on seeded key = (%d, %v, %v), want hit 10", v, hit, err)
	}

	// Resident entries win over a later seed.
	if _, _, err := c.Do("res", func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	c.Seed("res", 99)
	if v, _, _ := c.Do("res", nil); v != 1 {
		t.Fatalf("Seed clobbered a resident entry: got %d, want 1", v)
	}
}

func TestSnapshotSeedNilCache(t *testing.T) {
	var c *memo.Cache[string, int]
	if c.Snapshot() != nil {
		t.Fatal("nil Snapshot must be nil")
	}
	c.Seed("k", 1) // must not panic
}
