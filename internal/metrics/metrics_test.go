package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersAndTimers(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Counter("a").Inc()
	r.Counter("b").Add(2)
	r.Timer("t").Observe(10 * time.Millisecond)
	r.Observe("t", 30*time.Millisecond)

	if got := r.Counter("a").Value(); got != 4 {
		t.Fatalf("counter a = %d", got)
	}
	if got := r.Timer("t").Count(); got != 2 {
		t.Fatalf("timer count = %d", got)
	}
	if got := r.Timer("t").Total(); got != 40*time.Millisecond {
		t.Fatalf("timer total = %v", got)
	}
}

func TestGauges(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("server.inflight")
	g.Inc()
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge = %d, want 1", got)
	}
	r.Gauge("server.queue_depth").Set(5)
	r.Gauge("server.queue_depth").Add(-2)
	if got := r.Gauge("server.queue_depth").Value(); got != 3 {
		t.Fatalf("queue_depth = %d, want 3", got)
	}
	if r.Gauge("server.inflight") != g {
		t.Fatal("gauge lookup must return the same instance")
	}

	s := r.Snapshot()
	if s.Gauges["server.inflight"] != 1 || s.Gauges["server.queue_depth"] != 3 {
		t.Fatalf("snapshot gauges = %v", s.Gauges)
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Gauges["server.inflight"] != 1 {
		t.Fatalf("round trip lost gauge: %+v", back)
	}

	var nilG *Gauge
	nilG.Set(9)
	nilG.Inc()
	nilG.Dec()
	nilG.Add(2)
	if nilG.Value() != 0 {
		t.Fatal("nil gauge must read 0")
	}
	var nilR *Registry
	nilR.Gauge("x").Set(1) // must not panic
	if len(nilR.Snapshot().Gauges) != 0 {
		t.Fatal("nil registry snapshot must have no gauges")
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("n").Inc()
				r.Timer("t").Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Timer("t").Count(); got != 8000 {
		t.Fatalf("timer count = %d, want 8000", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1) // must not panic
	r.Timer("y").Observe(time.Second)
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Timers) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("cache.tables.hit").Add(7)
	r.Counter("cache.tables.miss").Add(3)
	r.Timer("net.analyze").Observe(2 * time.Millisecond)
	s := r.Snapshot()

	hits, misses, ratio := s.CacheRatio("cache.tables")
	if hits != 7 || misses != 3 || ratio != 0.7 {
		t.Fatalf("cache ratio = %d/%d/%.2f", hits, misses, ratio)
	}

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["cache.tables.hit"] != 7 {
		t.Fatalf("round trip lost counter: %+v", back)
	}
	if back.Timers["net.analyze"].Count != 1 {
		t.Fatalf("round trip lost timer: %+v", back)
	}
}

// TestHistogramQuantiles feeds a known distribution and checks the
// estimated tails land within the bucket resolution (~±12%).
func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	// 99 observations at 1ms, one at 100ms: p50 ≈ 1ms, p99 hits the
	// straggler bucket boundary, p999 clearly the straggler.
	for i := 0; i < 99; i++ {
		h.Observe(time.Millisecond)
	}
	h.Observe(100 * time.Millisecond)
	if n := h.Count(); n != 100 {
		t.Fatalf("count = %d", n)
	}
	p50 := h.Quantile(0.50)
	if p50 < 0.8e6 || p50 > 1.3e6 {
		t.Fatalf("p50 = %.0fns, want ≈1ms", p50)
	}
	p999 := h.Quantile(0.999)
	if p999 < 80e6 || p999 > 130e6 {
		t.Fatalf("p99.9 = %.0fns, want ≈100ms", p999)
	}
	// Monotonicity across the quantile range.
	last := 0.0
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1.0} {
		v := h.Quantile(q)
		if v < last {
			t.Fatalf("quantile %.2f = %.0f < previous %.0f", q, v, last)
		}
		last = v
	}
}

// TestHistogramNilAndZero covers the nil-receiver contract and empty
// histograms.
func TestHistogramNilAndZero(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second) // must not panic
	if h.Count() != 0 || h.Quantile(0.99) != 0 {
		t.Fatal("nil histogram must be a no-op")
	}
	var r *Registry
	if r.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil histograms")
	}
	h2 := &Histogram{}
	if h2.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	h2.Observe(0) // zero and negative durations land in bucket 0
	h2.Observe(-time.Second)
	if h2.Count() != 2 {
		t.Fatalf("count = %d", h2.Count())
	}
}

// TestHistogramSnapshot checks the registry wiring and the JSON shape.
func TestHistogramSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Histogram("gw.net.latency").Observe(2 * time.Millisecond)
	r.Histogram("gw.net.latency").Observe(4 * time.Millisecond)
	s := r.Snapshot()
	hs, ok := s.Histograms["gw.net.latency"]
	if !ok || hs.Count != 2 {
		t.Fatalf("snapshot histograms = %+v", s.Histograms)
	}
	if hs.MeanNs < 2.9e6 || hs.MeanNs > 3.1e6 {
		t.Fatalf("mean = %.0f, want ≈3ms", hs.MeanNs)
	}
	if hs.P99Ns < hs.P50Ns {
		t.Fatalf("p99 %.0f < p50 %.0f", hs.P99Ns, hs.P50Ns)
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "histograms") {
		t.Fatal("JSON snapshot missing histograms")
	}
}
