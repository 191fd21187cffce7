package spare

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// goid is the calling goroutine's id, read from its stack header.
func goid() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, err := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// procs sets GOMAXPROCS for the test's lifetime.
func procs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// enter counts k analyses busy for the test's lifetime.
func enter(t *testing.T, k int) {
	t.Helper()
	for range k {
		Enter()
	}
	t.Cleanup(func() {
		for range k {
			Leave()
		}
	})
}

// runners runs n parts and returns the goroutine that ran each.
func runners(t *testing.T, n int, wait func(i int)) []uint64 {
	t.Helper()
	ids := make([]uint64, n)
	if err := Do(n, func(i int) error {
		ids[i] = goid()
		wait(i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestForkEveryPartRunsOnce runs a large fork on every CPU: each slot is
// written once, by its own part, and the count returns to where it was.
func TestForkEveryPartRunsOnce(t *testing.T) {
	procs(t, 4)
	const n = 1000
	var mu sync.Mutex
	seen := make(map[int]int)
	out := make([]int, n)
	if err := Do(n, func(i int) error {
		out[i] = i * i
		mu.Lock()
		seen[i]++
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range n {
		if out[i] != i*i || seen[i] != 1 {
			t.Fatalf("part %d: slot %d, ran %d times", i, out[i], seen[i])
		}
	}
	if b := busy.Load(); b != 0 {
		t.Fatalf("busy count %d after Do, want 0", b)
	}
}

// TestForkNoHelperAtGOMAXPROCS fills the count to GOMAXPROCS: every part
// runs on the caller.
func TestForkNoHelperAtGOMAXPROCS(t *testing.T) {
	procs(t, 2)
	enter(t, 2)
	caller := goid()
	for i, id := range runners(t, 16, func(int) { time.Sleep(100 * time.Microsecond) }) {
		if id != caller {
			t.Fatalf("part %d ran on goroutine %d with the count at GOMAXPROCS, want the caller %d", i, id, caller)
		}
	}
}

// TestForkHelperTakesIdleCPU leaves one CPU idle: a helper runs parts
// alongside the caller. The first part to begin blocks until a second
// one has begun, which only another goroutine can do meanwhile.
func TestForkHelperTakesIdleCPU(t *testing.T) {
	procs(t, 2)
	enter(t, 1)
	caller := goid()
	var mu sync.Mutex
	begun := 0
	two := make(chan struct{})
	ids := runners(t, 4, func(int) {
		mu.Lock()
		if begun++; begun == 2 {
			close(two)
		}
		mu.Unlock()
		select {
		case <-two:
		case <-time.After(10 * time.Second):
			t.Error("no second goroutine began a part while one CPU was idle")
		}
	})
	helped := false
	for _, id := range ids {
		helped = helped || id != caller
	}
	if !helped {
		t.Fatal("every part ran on the caller with a CPU idle")
	}
}

// TestForkHelperStopsWhenOversubscribed raises the count past GOMAXPROCS
// from inside the first part a helper runs: that helper pulls no
// further part, and the caller runs the rest.
func TestForkHelperStopsWhenOversubscribed(t *testing.T) {
	procs(t, 2)
	enter(t, 1)
	caller := goid()
	const n = 8
	onHelper := make(chan struct{})
	var once sync.Once
	var raised bool
	ids := runners(t, n, func(i int) {
		if goid() != caller {
			once.Do(func() {
				// Two more analyses: the count (1 + this helper + 2)
				// now exceeds GOMAXPROCS.
				Enter()
				Enter()
				raised = true
				close(onHelper)
			})
			return
		}
		// Every caller part waits for the helper's first part, so the
		// helper begins one while parts remain.
		select {
		case <-onHelper:
		case <-time.After(10 * time.Second):
			t.Error("no helper began a part")
		}
	})
	if raised {
		Leave()
		Leave()
	}
	helper := 0
	for _, id := range ids {
		if id != caller {
			helper++
		}
	}
	if helper != 1 {
		t.Fatalf("the helper ran %d parts, want 1: it must stop pulling once the count exceeds GOMAXPROCS", helper)
	}
	if b := busy.Load(); b != 1 {
		t.Fatalf("busy count %d after Do, want the test's own 1", b)
	}
}

// TestForkLowestIndexError fails several parts: Do returns the error of the
// lowest-index one whichever goroutine finished first, and no part
// above the lowest failure that had not begun begins after it.
func TestForkLowestIndexError(t *testing.T) {
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs%d", p), func(t *testing.T) {
			procs(t, p)
			for trial := range 50 {
				err := Do(16, func(i int) error {
					switch i {
					case 3:
						time.Sleep(time.Duration(trial%3) * 100 * time.Microsecond)
						return fmt.Errorf("part %d", i)
					case 5, 11:
						return fmt.Errorf("part %d", i)
					}
					return nil
				})
				if err == nil || err.Error() != "part 3" {
					t.Fatalf("trial %d: err = %v, want part 3's", trial, err)
				}
			}
		})
	}
}

// TestForkHelperPanicReraisedOnCaller panics in the part a helper runs:
// Do joins every helper and re-raises the panic on the caller as a
// *Panic carrying the value and the stack where it panicked.
func TestForkHelperPanicReraisedOnCaller(t *testing.T) {
	procs(t, 2)
	caller := goid()
	begun := make(chan struct{})
	var got any
	func() {
		defer func() { got = recover() }()
		Do(2, func(int) error {
			if goid() != caller {
				close(begun)
				panic(errors.New("boom"))
			}
			select {
			case <-begun:
			case <-time.After(10 * time.Second):
				t.Error("no helper began a part")
			}
			return nil
		})
	}()
	p, ok := got.(*Panic)
	if !ok {
		t.Fatalf("recovered %T %v on the caller, want *Panic", got, got)
	}
	if fmt.Sprint(p.Value) != "boom" || !bytes.Contains(p.Stack, []byte("TestForkHelperPanicReraisedOnCaller")) {
		t.Fatalf("panic value %v, stack:\n%s", p.Value, p.Stack)
	}
	if b := busy.Load(); b != 0 {
		t.Fatalf("busy count %d after the re-raise, want 0 (the helper was joined)", b)
	}
}

// TestForkPanicBeatsLaterError: a panic below an error wins, an error below
// a panic wins, at every GOMAXPROCS.
func TestForkPanicBeatsLaterError(t *testing.T) {
	for _, p := range []int{1, 4} {
		procs(t, p)
		func() {
			defer func() {
				if r, ok := recover().(*Panic); !ok || r.Value != "two" {
					t.Fatalf("procs %d: recovered %v, want part 2's panic", p, r)
				}
			}()
			Do(8, func(i int) error {
				switch i {
				case 2:
					panic("two")
				case 6:
					return errors.New("six")
				}
				return nil
			})
		}()
		err := Do(8, func(i int) error {
			switch i {
			case 1:
				return errors.New("one")
			case 6:
				panic("six")
			}
			return nil
		})
		if err == nil || err.Error() != "one" {
			t.Fatalf("procs %d: err = %v, want part 1's", p, err)
		}
	}
}
