// Package spare runs the independent parts of one computation on idle
// CPUs. Do runs parts 0..n-1 on its caller and on helper goroutines
// that pull indices in order; each part writes only its own slot, so
// the result is the same bits whichever goroutine ran which part.
//
// Helpers take only idle CPUs. The analyses that fork (a net's
// delay-noise analysis, its quiet half, a receiver's table) count
// themselves busy for their whole run (Enter, Leave), and so does
// every running helper. A fork starts a helper only while the count is
// below runtime.GOMAXPROCS(0), and a helper stops pulling parts once
// the count exceeds it. The caller never waits on the count: when no
// CPU is idle, every part runs inline on the caller, in order. Nothing
// is settable.
package spare

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// busy counts the running analyses and helpers of the process.
var busy atomic.Int64

// Enter counts the calling analysis busy until it calls Leave.
func Enter() { busy.Add(1) }

// Leave ends what Enter began.
func Leave() { busy.Add(-1) }

// Panic is what Do re-raises on its caller when a part panics: the
// part's panic value, and the stack of the goroutine that ran the part,
// taken where it panicked.
type Panic struct {
	Value any
	Stack []byte
}

func (p *Panic) Error() string { return fmt.Sprintf("%v\n\n%s", p.Value, p.Stack) }

// Do runs f(0), ..., f(n-1), the caller taking parts in index order
// alongside any helpers it could start, and returns once every part
// that began has ended. Once a part fails (returns an error or panics),
// no part not yet begun begins; every part below it has begun, since
// indices are handed out in order. Do then re-raises the lowest-index
// panic as a *Panic, or returns the lowest-index error, whichever part
// comes first: the outcome does not depend on which goroutine ran
// what.
func Do(n int, f func(i int) error) error {
	if n <= 0 {
		return nil
	}
	r := &fork{f: f, n: int64(n), errs: make([]error, n), panics: make([]*Panic, n)}
	procs := int64(runtime.GOMAXPROCS(0))
	for h := 1; h < n && claim(procs); h++ {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.help(procs)
		}()
	}
	r.work()
	r.wg.Wait()
	for i := range n {
		if p := r.panics[i]; p != nil {
			panic(p)
		}
		if err := r.errs[i]; err != nil {
			return err
		}
	}
	return nil
}

// claim counts one more helper busy when the count is below procs.
func claim(procs int64) bool {
	for {
		c := busy.Load()
		if c >= procs {
			return false
		}
		if busy.CompareAndSwap(c, c+1) {
			return true
		}
	}
}

// fork is one Do call's shared state.
type fork struct {
	f      func(int) error
	n      int64
	next   atomic.Int64 // the lowest index not yet handed out
	failed atomic.Bool  // a part failed: hand out no more
	errs   []error      // part i writes errs[i] and panics[i]
	panics []*Panic
	wg     sync.WaitGroup
}

// pull hands out the next index, or reports that none is left.
func (r *fork) pull() (int, bool) {
	if r.failed.Load() {
		return 0, false
	}
	i := r.next.Add(1) - 1
	return int(i), i < r.n
}

// work runs parts until none is left: the caller's loop.
func (r *fork) work() {
	for i, ok := r.pull(); ok; i, ok = r.pull() {
		r.part(i)
	}
}

// help is a helper's loop: work, but it stops pulling once the process
// is busier than procs.
func (r *fork) help(procs int64) {
	defer busy.Add(-1)
	for busy.Load() <= procs {
		i, ok := r.pull()
		if !ok {
			return
		}
		r.part(i)
	}
}

// part runs part i, keeping its error or panic in its slot.
func (r *fork) part(i int) {
	defer func() {
		if p := recover(); p != nil {
			r.panics[i] = &Panic{Value: p, Stack: debug.Stack()}
			r.failed.Store(true)
		}
	}()
	if err := r.f(i); err != nil {
		r.errs[i] = err
		r.failed.Store(true)
	}
}
