package delaynoise

// Warm-start persistence for the shared caches: Snapshot exports a
// cache's completed entries as plain exported structs (JSON-friendly,
// float64 round-trips bit-exactly), Seed installs them into a fresh
// cache. Keys are re-stated in exported form rather than re-derived, so
// a seeded cache hits exactly where the populating run's cache did.
// Seeding never clobbers entries computed in this process (memo.Seed
// semantics), and a snapshot taken mid-run simply omits in-flight work.

import (
	"repro/internal/ceff"
	"repro/internal/holdres"
	"repro/internal/linalg"
	"repro/internal/mna"
	"repro/internal/mor"
	"repro/internal/thevenin"
)

// RoughEntry is one persisted rough Thevenin fit (bucket-keyed).
type RoughEntry struct {
	Cell       string
	Rising     bool
	SlewBucket int
	LumpBucket int
	Model      thevenin.Model
}

// FullEntry is one persisted C-effective characterization (exact-keyed).
type FullEntry struct {
	Cell    string
	Rising  bool
	Slew    uint64 // exact float bits
	Node    string
	Circuit uint64 // circuit content hash
	Result  ceff.Result
}

// HoldEntry is one persisted transient holding resistance (exact-keyed).
type HoldEntry struct {
	Cell   string
	Rising bool
	Slew   uint64 // exact float bits
	Ceff   uint64
	Rth    uint64
	Noise  uint64 // injected-noise waveform hash
	Result *holdres.Result
}

// CharSnapshot is the persistable content of a CharCache. BucketRes
// pins the geometric bucket resolution the rough keys were computed
// under: seeding into a cache with a different resolution would place
// entries in the wrong buckets, so Seed refuses it.
type CharSnapshot struct {
	BucketRes float64
	Rough     []RoughEntry
	Full      []FullEntry
	Hold      []HoldEntry
}

// Snapshot exports the cache's completed entries. Nil receiver (cache
// disabled) yields nil.
func (cc *CharCache) Snapshot() *CharSnapshot {
	if cc == nil {
		return nil
	}
	snap := &CharSnapshot{BucketRes: cc.res}
	for k, v := range cc.rough.Snapshot() {
		snap.Rough = append(snap.Rough, RoughEntry{
			Cell: k.cell, Rising: k.rising, SlewBucket: k.slewB, LumpBucket: k.lumpB, Model: v,
		})
	}
	for k, v := range cc.full.Snapshot() {
		snap.Full = append(snap.Full, FullEntry{
			Cell: k.cell, Rising: k.rising, Slew: k.slew, Node: k.node, Circuit: k.ckt, Result: v,
		})
	}
	for k, v := range cc.hold.Snapshot() {
		snap.Hold = append(snap.Hold, HoldEntry{
			Cell: k.cell, Rising: k.rising, Slew: k.slew, Ceff: k.ceff, Rth: k.rth, Noise: k.noise, Result: v,
		})
	}
	return snap
}

// Seed installs a snapshot's entries. Entries whose keys are already
// resident lose to the resident value. A snapshot taken under a
// different bucket resolution is ignored entirely (its rough buckets
// don't line up), reported via the return value.
func (cc *CharCache) Seed(snap *CharSnapshot) (ok bool) {
	if cc == nil || snap == nil {
		return false
	}
	if snap.BucketRes != cc.res {
		return false
	}
	for _, e := range snap.Rough {
		cc.rough.Seed(roughKey{e.Cell, e.Rising, e.SlewBucket, e.LumpBucket}, e.Model)
	}
	for _, e := range snap.Full {
		cc.full.Seed(fullKey{e.Cell, e.Rising, e.Slew, e.Node, e.Circuit}, e.Result)
	}
	for _, e := range snap.Hold {
		cc.hold.Seed(holdKey{e.Cell, e.Rising, e.Slew, e.Ceff, e.Rth, e.Noise}, e.Result)
	}
	return true
}

// Res reports the cache's relative bucket resolution (0 for a nil,
// disabled cache). It participates in warm-store identity: snapshots
// only seed into caches with the same resolution.
func (cc *CharCache) Res() float64 {
	if cc == nil {
		return 0
	}
	return cc.res
}

// ROMEntry is one persisted PRIMA reduction. The reduced system, basis,
// and full system are stored whole; the full system may be omitted (nil)
// when it aliases the reduced one (identity projection).
type ROMEntry struct {
	System  uint64 // MNA content hash (the cache key)
	Q       int    // requested order (the cache key)
	Reduced *mna.System
	V       *linalg.Matrix
	Full    *mna.System
	Order   int
}

// Snapshot exports the cache's completed reductions.
func (rc *ROMCache) Snapshot() []ROMEntry {
	if rc == nil {
		return nil
	}
	var out []ROMEntry
	for k, rom := range rc.roms.Snapshot() {
		e := ROMEntry{System: k.sys, Q: k.q, Reduced: rom.Reduced, V: rom.V, Order: rom.Order}
		if full := rom.Full(); full != rom.Reduced {
			e.Full = full
		}
		out = append(out, e)
	}
	return out
}

// Seed installs persisted reductions, skipping entries that fail to
// restore (a malformed store entry costs a warm hit, not the run).
func (rc *ROMCache) Seed(entries []ROMEntry) {
	if rc == nil {
		return
	}
	for _, e := range entries {
		rom, err := mor.Restore(e.Reduced, e.V, e.Full, e.Order)
		if err != nil {
			continue
		}
		rc.roms.Seed(romKey{e.System, e.Q}, rom)
	}
}
