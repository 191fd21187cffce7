package delaynoise

import (
	"context"
	"math"

	"repro/internal/ceff"
	"repro/internal/device"
	"repro/internal/memo"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/thevenin"
)

// The shared cache below lets a batch engine (internal/clarinet) fan
// the per-net flow across cores without repeating work: nets that share
// a driver cell at a similar operating point reuse the rough Thevenin
// fit, and duplicated held circuits reuse the full C-effective
// characterization. Its two memos are single-flight and bounded
// (internal/memo): concurrent nets needing the same entry compute it
// once, and a resident session holds at most two generations of
// entries. The lookups tolerate a nil receiver and simply compute
// uncached, so the engine code calls them unconditionally. Results
// that do not recur across nets are computed per analysis: the holding
// resistance, derived from one net's own noise, the noiseless driver
// run behind it, which the analysis runs once and reuses across its
// Rtr iterations, and a PRIMA reduction of one net's system.
//
// Each method takes the calling net's context: under single flight the
// in-flight computation runs on the first caller's context, and a
// cancellation there surfaces to every waiter. Failed computations are
// never cached (memo drops them), so a canceled entry does not poison
// the cache — the next caller simply recomputes it.

// charBucketRes is the relative width of the geometric slew/load
// buckets of CharCache's rough-fit cache. Warm-store entries persist
// rough fits by bucket index, so changing it needs a
// warmstore.SchemaVersion bump.
const charBucketRes = 0.05

type roughKey struct {
	cell   string
	rising bool
	slewB  int
	lumpB  int
}

type fullKey struct {
	cell   string
	rising bool
	slew   uint64 // exact float bits
	node   string
	ckt    string // the held circuit's exact byte encoding (circuitKey)
}

// CharCache memoizes driver characterizations across analyses.
//
// Rough Thevenin fits are keyed by (cell, slew bucket, load bucket) and
// evaluated at the bucket-canonical operating point, so nearby operating
// points share one fit deterministically (the result never depends on
// which net populated the bucket first). The bucketing perturbs only the
// holding resistances used for pass-2 characterization, by at most the
// bucket resolution. Full C-effective characterizations are keyed
// exactly, by the held circuit's byte encoding itself rather than a
// digest of it, so a hit is bit-identical to an uncached run and no
// collision can hand one driver another circuit's result; hits occur
// for repeated held circuits.
//
// A CharCache must not be shared across cell libraries or technologies:
// keys identify cells by name.
type CharCache struct {
	metrics *metrics.Registry
	rough   *memo.Cache[roughKey, thevenin.Model]
	full    *memo.Cache[fullKey, ceff.Result]
}

// NewCharCache builds a characterization cache. The registry, which
// may be nil, receives cache.char.* hit/miss counters and the resident
// entry count of each memo as a gauge.
func NewCharCache(m *metrics.Registry) *CharCache {
	return &CharCache{
		metrics: m,
		rough:   memo.New[roughKey, thevenin.Model](m.Gauge(mCacheCharRough + mEntriesSuffix)),
		full:    memo.New[fullKey, ceff.Result](m.Gauge(mCacheCharFull + mEntriesSuffix)),
	}
}

// bucket maps a positive quantity onto a geometric grid and returns the
// bucket index together with the bucket-canonical value.
func bucket(v float64) (int, float64) {
	if v <= 0 {
		return 0, v
	}
	step := math.Log1p(charBucketRes)
	b := int(math.Round(math.Log(v) / step))
	return b, math.Exp(float64(b) * step)
}

func (cc *CharCache) count(base string, hit bool) {
	if cc == nil {
		return
	}
	if hit {
		cc.metrics.Counter(base + mHitSuffix).Inc()
	} else {
		cc.metrics.Counter(base + mMissSuffix).Inc()
	}
}

// RoughFit returns the lumped-load Thevenin model of a driver, evaluated
// at the bucket-canonical (slew, load) point and shared across nets.
func (cc *CharCache) RoughFit(ctx context.Context, cell *device.Cell, slew float64, inRising bool, lump float64) (thevenin.Model, error) {
	if cc == nil {
		m, _, err := thevenin.FitContext(ctx, cell, slew, inRising, lump)
		return m, err
	}
	sb, sq := bucket(slew)
	lb, lq := bucket(lump)
	m, hit, err := cc.rough.Do(roughKey{cell.Name, inRising, sb, lb}, func() (thevenin.Model, error) {
		m, _, err := thevenin.FitContext(ctx, cell, sq, inRising, lq)
		return m, err
	})
	cc.count(mCacheCharRough, hit)
	return m, err
}

// Characterize returns the C-effective characterization of a driver
// against the held interconnect. Keys are exact (slew bits plus the
// circuit's byte encoding), so a hit reproduces the uncached result and
// occurs only for duplicated held circuits.
func (cc *CharCache) Characterize(ctx context.Context, cell *device.Cell, slew float64, inRising bool, net *netlist.Circuit, node string) (ceff.Result, error) {
	if cc == nil {
		return ceff.ComputeContext(ctx, cell, slew, inRising, net, node)
	}
	key := fullKey{cell.Name, inRising, math.Float64bits(slew), node, circuitKey(net)}
	res, hit, err := cc.full.Do(key, func() (ceff.Result, error) {
		return ceff.ComputeContext(ctx, cell, slew, inRising, net, node)
	})
	cc.count(mCacheCharFull, hit)
	return res, err
}
