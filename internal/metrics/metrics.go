// Package metrics is the lightweight instrumentation layer of the
// analysis engine: named atomic counters, gauges, and timers collected
// in a Registry, snapshotted into a stable, sortable form, and rendered
// as JSON (for the bench trajectory, CI artifacts, and the noised
// /metrics endpoint) or aligned text (for CLI summaries).
//
// The package is allocation-light and safe for concurrent use. Every
// method tolerates a nil receiver, so instrumented code can call
//
//	opt.Metrics.Counter("sim.linear").Add(1)
//
// unconditionally: with no registry configured the call is a no-op.
package metrics

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically adjusted atomic count.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta. Safe on a nil Counter.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Inc increments the counter by one. Safe on a nil Counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count. Safe on a nil Counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic level — queue depth, in-flight
// requests — that moves both ways, unlike the monotonic Counter.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value. Safe on a nil Gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (negative deltas lower it). Safe on a
// nil Gauge.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Inc raises the gauge by one. Safe on a nil Gauge.
func (g *Gauge) Inc() { g.Add(1) }

// Dec lowers the gauge by one. Safe on a nil Gauge.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current level. Safe on a nil Gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Timer accumulates a call count and total elapsed wall time.
type Timer struct {
	n  atomic.Int64
	ns atomic.Int64
}

// Observe records one event of duration d. Safe on a nil Timer.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.n.Add(1)
	t.ns.Add(int64(d))
}

// Count returns the number of observations. Safe on a nil Timer.
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.n.Load()
}

// Total returns the accumulated duration. Safe on a nil Timer.
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.ns.Load())
}

// histBuckets is the bucket count of a Histogram: 64 octaves of
// nanoseconds, each split into 4 quarter-octave sub-buckets, covering
// every representable duration with ~±12% relative resolution.
const histBuckets = 64 * 4

// Histogram accumulates duration observations into exponentially sized
// buckets for cheap tail-quantile estimates. Unlike Timer (count +
// total only), a Histogram answers p50/p95/p99 questions — the load
// signals a latency-sensitive serving layer is judged by. Observation
// is lock-free (one atomic add); quantiles are computed at snapshot
// time. Safe for concurrent use; every method tolerates a nil receiver.
type Histogram struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// histIndex maps a duration to its bucket: the octave (bit length of
// the nanosecond count) selects the coarse bucket, the two bits below
// the leading bit the quarter-octave within it.
func histIndex(d time.Duration) int {
	ns := uint64(d.Nanoseconds())
	if ns == 0 {
		return 0
	}
	octave := 63
	for ns>>uint(octave)&1 == 0 {
		octave--
	}
	var minor uint64
	if octave >= 2 {
		minor = (ns >> uint(octave-2)) & 3
	}
	return octave*4 + int(minor)
}

// histBucketValue is the representative duration of a bucket: the
// midpoint of its quarter-octave range.
func histBucketValue(i int) float64 {
	octave, minor := i/4, i%4
	lo := float64(uint64(1)<<uint(octave)) * (1 + float64(minor)/4)
	return lo * 1.125 // midpoint of a quarter-octave span
}

// Observe records one duration. Safe on a nil Histogram.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sumNs.Add(int64(d))
	h.buckets[histIndex(d)].Add(1)
}

// Count returns the number of observations. Safe on a nil Histogram.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile estimates the q-quantile (0 < q ≤ 1) in nanoseconds from the
// bucket counts, to the bucket resolution (~±12%). Zero observations
// yield 0. Safe on a nil Histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return histBucketValue(i)
		}
	}
	return histBucketValue(histBuckets - 1)
}

// Registry is a named collection of counters, gauges, timers, and
// histograms.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	timers     map[string]*Timer
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		timers:     map[string]*Timer{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns (creating on first use) the named counter. A nil
// registry returns a nil counter, whose methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge. A nil registry
// returns a nil gauge, whose methods are no-ops.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns (creating on first use) the named timer. A nil registry
// returns a nil timer, whose methods are no-ops.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Histogram returns (creating on first use) the named histogram. A nil
// registry returns a nil histogram, whose methods are no-ops.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Observe is shorthand for Timer(name).Observe(d).
func (r *Registry) Observe(name string, d time.Duration) { r.Timer(name).Observe(d) }

// TimerStat is the snapshotted state of one timer.
type TimerStat struct {
	Count   int64   `json:"count"`
	TotalNs int64   `json:"total_ns"`
	MeanNs  float64 `json:"mean_ns"`
}

// HistogramStat is the snapshotted state of one histogram: the count,
// mean, and the three tail quantiles the serving layers report.
type HistogramStat struct {
	Count  int64   `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  float64 `json:"p50_ns"`
	P95Ns  float64 `json:"p95_ns"`
	P99Ns  float64 `json:"p99_ns"`
}

// Snapshot is a point-in-time copy of a registry, suitable for JSON
// export and comparison.
type Snapshot struct {
	Counters   map[string]int64         `json:"counters"`
	Gauges     map[string]int64         `json:"gauges"`
	Timers     map[string]TimerStat     `json:"timers"`
	Histograms map[string]HistogramStat `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state. A nil registry yields an
// empty (but usable) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}, Timers: map[string]TimerStat{}}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, t := range r.timers {
		n := t.Count()
		ts := TimerStat{Count: n, TotalNs: int64(t.Total())}
		if n > 0 {
			ts.MeanNs = float64(ts.TotalNs) / float64(n)
		}
		s.Timers[name] = ts
	}
	for name, h := range r.histograms {
		n := h.Count()
		hs := HistogramStat{
			Count: n,
			P50Ns: h.Quantile(0.50),
			P95Ns: h.Quantile(0.95),
			P99Ns: h.Quantile(0.99),
		}
		if n > 0 {
			hs.MeanNs = float64(h.sumNs.Load()) / float64(n)
		}
		if s.Histograms == nil {
			s.Histograms = map[string]HistogramStat{}
		}
		s.Histograms[name] = hs
	}
	return s
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// CacheRatio returns the hit count, miss count, and hit ratio of a cache
// instrumented under the "<base>.hit"/"<base>.miss" convention.
func (s Snapshot) CacheRatio(base string) (hits, misses int64, ratio float64) {
	hits = s.Counters[base+".hit"]
	misses = s.Counters[base+".miss"]
	if total := hits + misses; total > 0 {
		ratio = float64(hits) / float64(total)
	}
	return hits, misses, ratio
}
