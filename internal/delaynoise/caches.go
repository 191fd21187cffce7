package delaynoise

import (
	"context"
	"math"

	"repro/internal/ceff"
	"repro/internal/device"
	"repro/internal/gatesim"
	"repro/internal/holdres"
	"repro/internal/memo"
	"repro/internal/metrics"
	"repro/internal/mna"
	"repro/internal/mor"
	"repro/internal/netlist"
	"repro/internal/thevenin"
	"repro/internal/waveform"
)

// The shared caches below let a batch engine (internal/clarinet) fan the
// per-net flow across cores without repeating work: nets that share a
// driver cell at a similar operating point reuse the rough Thevenin fit,
// duplicated net structures (bus bits, clock spines) reuse the full
// C-effective characterization, the transient-holding-resistance
// derivation, and the PRIMA reduction. All caches are single-flight
// (internal/memo): concurrent nets needing the same entry compute it
// once. Every method tolerates a nil receiver and simply computes
// uncached, so the engine code calls them unconditionally.
//
// Each method takes the calling net's context: under single flight the
// in-flight computation runs on the first caller's context, and a
// cancellation there surfaces to every waiter. Failed computations are
// never cached (memo drops them), so a canceled entry does not poison
// the cache — the next caller simply recomputes it.

// DefaultCharBucketRes is the relative width of the geometric slew/load
// buckets of CharCache's rough-fit cache.
const DefaultCharBucketRes = 0.05

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
	ckt    uint64 // circuit content hash
}

type holdKey struct {
	cell            string
	rising          bool
	slew, ceff, rth uint64
	noise           uint64 // hash of the injected noise waveform
}

type driveKey struct {
	cell       string
	rising     bool
	slew, ceff uint64 // exact float bits
}

// CharCache memoizes driver characterizations across analyses.
//
// Rough Thevenin fits are keyed by (cell, slew bucket, load bucket) and
// evaluated at the bucket-canonical operating point, so nearby operating
// points share one fit deterministically (the result never depends on
// which net populated the bucket first). The bucketing perturbs only the
// holding resistances used for pass-2 characterization, by at most the
// bucket resolution. Full C-effective characterizations and transient
// holding resistances are keyed exactly (including a content hash of the
// held circuit or noise waveform), so cache hits are bit-identical to
// uncached runs and occur for repeated net structures. The noiseless
// driver run behind each holding resistance is keyed exactly by its
// operating point alone and shared by every noise waveform there (the
// Rtr iterations of one net, and nets with the same victim driver); it
// stays in memory and is not part of a CharSnapshot.
//
// A CharCache must not be shared across cell libraries or technologies:
// keys identify cells by name.
type CharCache struct {
	res     float64
	metrics *metrics.Registry
	rough   *memo.Cache[roughKey, thevenin.Model]
	full    *memo.Cache[fullKey, ceff.Result]
	hold    *memo.Cache[holdKey, *holdres.Result]
	drive   *memo.Cache[driveKey, gatesim.DriveResult]
}

// NewCharCache builds a characterization cache with the given relative
// bucket resolution (<= 0 selects DefaultCharBucketRes). The registry,
// which may be nil, receives cache.char.* hit/miss counters.
func NewCharCache(res float64, m *metrics.Registry) *CharCache {
	if res <= 0 {
		res = DefaultCharBucketRes
	}
	return &CharCache{
		res:     res,
		metrics: m,
		rough:   memo.New[roughKey, thevenin.Model](),
		full:    memo.New[fullKey, ceff.Result](),
		hold:    memo.New[holdKey, *holdres.Result](),
		drive:   memo.New[driveKey, gatesim.DriveResult](),
	}
}

// bucket maps a positive quantity onto a geometric grid and returns the
// bucket index together with the bucket-canonical value.
func (cc *CharCache) bucket(v float64) (int, float64) {
	if v <= 0 {
		return 0, v
	}
	step := math.Log1p(cc.res)
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
	sb, sq := cc.bucket(slew)
	lb, lq := cc.bucket(lump)
	m, hit, err := cc.rough.Do(roughKey{cell.Name, inRising, sb, lb}, func() (thevenin.Model, error) {
		m, _, err := thevenin.FitContext(ctx, cell, sq, inRising, lq)
		return m, err
	})
	cc.count(mCacheCharRough, hit)
	return m, err
}

// Characterize returns the C-effective characterization of a driver
// against the held interconnect. Keys are exact (slew bits plus a
// content hash of the circuit), so a hit reproduces the uncached result
// and occurs only for duplicated net structures.
func (cc *CharCache) Characterize(ctx context.Context, cell *device.Cell, slew float64, inRising bool, net *netlist.Circuit, node string) (ceff.Result, error) {
	if cc == nil {
		return ceff.ComputeContext(ctx, cell, slew, inRising, net, node, ceff.Options{})
	}
	key := fullKey{cell.Name, inRising, math.Float64bits(slew), node, hashCircuit(net)}
	res, hit, err := cc.full.Do(key, func() (ceff.Result, error) {
		return ceff.ComputeContext(ctx, cell, slew, inRising, net, node, ceff.Options{})
	})
	cc.count(mCacheCharFull, hit)
	return res, err
}

// HoldRes returns the transient holding resistance of a driver under the
// injected noise vn, keyed exactly (including the noise waveform).
func (cc *CharCache) HoldRes(ctx context.Context, cell *device.Cell, slew float64, inRising bool, cEff, rth float64, vn *waveform.PWL) (*holdres.Result, error) {
	if cc == nil {
		return holdres.ComputeContext(ctx, cell, slew, inRising, cEff, rth, vn)
	}
	key := holdKey{
		cell:   cell.Name,
		rising: inRising,
		slew:   math.Float64bits(slew),
		ceff:   math.Float64bits(cEff),
		rth:    math.Float64bits(rth),
		noise:  hashPWL(vn),
	}
	res, hit, err := cc.hold.Do(key, func() (*holdres.Result, error) {
		if err := holdres.Check(cEff, rth, vn); err != nil {
			return nil, err
		}
		first, err := cc.noiseless(ctx, cell, slew, inRising, cEff)
		if err != nil {
			return nil, err
		}
		return holdres.FromNoiseless(ctx, cell, slew, inRising, cEff, rth, vn, first)
	})
	cc.count(mCacheHoldres, hit)
	return res, err
}

// noiseless returns the holding-resistance noiseless driver run at one
// operating point, computed once per exact (cell, direction, slew,
// ceff) key.
func (cc *CharCache) noiseless(ctx context.Context, cell *device.Cell, slew float64, inRising bool, cEff float64) (gatesim.DriveResult, error) {
	key := driveKey{cell.Name, inRising, math.Float64bits(slew), math.Float64bits(cEff)}
	first, hit, err := cc.drive.Do(key, func() (gatesim.DriveResult, error) {
		return holdres.Noiseless(ctx, cell, slew, inRising, cEff)
	})
	cc.count(mCacheDrive, hit)
	return first, err
}

type romKey struct {
	sys uint64
	q   int
}

// ROMCache memoizes PRIMA reduced-order models keyed by a content hash
// of the assembled MNA system (matrices and node names, excluding the
// source waveforms, which the reduction does not depend on). Cache hits
// rebind the cached projection to the caller's sources.
type ROMCache struct {
	metrics *metrics.Registry
	roms    *memo.Cache[romKey, *mor.ROM]
}

// NewROMCache builds a reduced-order-model cache. The registry, which
// may be nil, receives cache.rom hit/miss counters.
func NewROMCache(m *metrics.Registry) *ROMCache {
	return &ROMCache{metrics: m, roms: memo.New[romKey, *mor.ROM]()}
}

// Reduce returns a PRIMA reduction of sys to order q, sharing the Krylov
// projection across systems with identical matrices.
func (rc *ROMCache) Reduce(ctx context.Context, sys *mna.System, q int) (*mor.ROM, error) {
	if rc == nil {
		return mor.ReduceContext(ctx, sys, q)
	}
	rom, hit, err := rc.roms.Do(romKey{hashSystem(sys), q}, func() (*mor.ROM, error) {
		return mor.ReduceContext(ctx, sys, q)
	})
	if hit {
		rc.metrics.Counter(mCacheROMHit).Inc()
	} else {
		rc.metrics.Counter(mCacheROMMiss).Inc()
	}
	if err != nil {
		return nil, err
	}
	if !hit {
		return rom, nil
	}
	// The cached model carries the populating run's sources; rebind.
	return rom.WithInputs(sys.Inputs)
}

// --- content hashing (FNV-1a over exact bit patterns) ---

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime
}

func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*i)))
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	h = fnvU64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

func fnvFloat(h uint64, f float64) uint64 {
	return fnvU64(h, math.Float64bits(f))
}

// hashPWL hashes a waveform's exact breakpoints.
func hashPWL(w *waveform.PWL) uint64 {
	h := uint64(fnvOffset)
	if w == nil {
		return h
	}
	h = fnvU64(h, uint64(len(w.T)))
	for i := range w.T {
		h = fnvFloat(h, w.T[i])
		h = fnvFloat(h, w.V[i])
	}
	return h
}

// hashCircuit hashes every element of a circuit: names, terminals,
// values, and source waveforms. Two circuits built by the same
// deterministic construction path hash equally iff they are identical.
func hashCircuit(c *netlist.Circuit) uint64 {
	h := uint64(fnvOffset)
	h = fnvU64(h, uint64(len(c.Resistors)))
	for _, r := range c.Resistors {
		h = fnvString(h, r.Name)
		h = fnvString(h, r.A)
		h = fnvString(h, r.B)
		h = fnvFloat(h, r.R)
	}
	h = fnvU64(h, uint64(len(c.Capacitors)))
	for _, cap := range c.Capacitors {
		h = fnvString(h, cap.Name)
		h = fnvString(h, cap.A)
		h = fnvString(h, cap.B)
		h = fnvFloat(h, cap.C)
	}
	h = fnvU64(h, uint64(len(c.CurrentSources)))
	for _, s := range c.CurrentSources {
		h = fnvString(h, s.Name)
		h = fnvString(h, s.A)
		h = fnvU64(h, hashPWL(s.I))
	}
	h = fnvU64(h, uint64(len(c.Drivers)))
	for _, d := range c.Drivers {
		h = fnvString(h, d.Name)
		h = fnvString(h, d.A)
		h = fnvFloat(h, d.R)
		h = fnvU64(h, hashPWL(d.V))
	}
	return h
}

// hashSystem hashes an MNA system's matrices and state names, excluding
// the input waveforms.
func hashSystem(s *mna.System) uint64 {
	h := uint64(fnvOffset)
	h = fnvU64(h, uint64(len(s.Nodes)))
	for _, n := range s.Nodes {
		h = fnvString(h, n)
	}
	for _, data := range [][]float64{s.G.Data, s.C.Data, s.B.Data} {
		h = fnvU64(h, uint64(len(data)))
		for _, v := range data {
			h = fnvFloat(h, v)
		}
	}
	return h
}
