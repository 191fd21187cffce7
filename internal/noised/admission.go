package noised

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// Gate is a serving binary's load gate: a semaphore of analysis (or, in
// the gateway, coordination) slots fronted by a bounded wait queue. Its
// instantaneous state is exported through two gauges — the load signals
// counters cannot express. The gateway's gate is what completes the
// end-to-end backpressure story: replica sheds slow its sub-requests,
// and its own gate sheds clients rather than queueing unboundedly on a
// saturated fleet.
type Gate struct {
	slots    chan struct{}
	mu       sync.Mutex
	queued   int
	maxQueue int
	drained  atomic.Bool

	inflight   *metrics.Gauge
	queueDepth *metrics.Gauge

	// errFull and errDraining are acquire's refusals: the wait queue is
	// at capacity, or the binary has begun its graceful drain.
	errFull, errDraining error
}

// NewGate builds a gate of maxInflight slots and maxQueue waiters whose
// live state lands in the inflight and queueDepth gauges. name and role
// word its refusals: "<name>: admission queue full" and
// "<name>: <role> draining".
func NewGate(name, role string, maxInflight, maxQueue int, inflight, queueDepth *metrics.Gauge) *Gate {
	return &Gate{
		slots:       make(chan struct{}, maxInflight),
		maxQueue:    maxQueue,
		inflight:    inflight,
		queueDepth:  queueDepth,
		errFull:     errors.New(name + ": admission queue full"),
		errDraining: errors.New(name + ": " + role + " draining"),
	}
}

// Drain flips the gate into drain mode; it is idempotent.
func (a *Gate) Drain() { a.drained.Store(true) }

// Draining reports whether the gate has begun its drain.
func (a *Gate) Draining() bool { return a.drained.Load() }

// acquire claims a slot, waiting in the bounded queue when every slot
// is busy. It fails fast with errDraining during shutdown, with errFull
// when the queue is at capacity, and with the context's error when the
// caller gives up while queued. On success the caller must release.
func (a *Gate) acquire(ctx context.Context) error {
	if a.Draining() {
		return a.errDraining
	}
	// Fast path: a free slot, no queueing.
	select {
	case a.slots <- struct{}{}:
		a.inflight.Inc()
		return nil
	default:
	}
	a.mu.Lock()
	if a.queued >= a.maxQueue {
		a.mu.Unlock()
		return a.errFull
	}
	a.queued++
	a.queueDepth.Set(int64(a.queued))
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		a.queued--
		a.queueDepth.Set(int64(a.queued))
		a.mu.Unlock()
	}()
	select {
	case a.slots <- struct{}{}:
		a.inflight.Inc()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns a slot claimed by acquire.
func (a *Gate) release() {
	<-a.slots
	a.inflight.Dec()
}
