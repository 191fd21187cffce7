package delaynoise

// Warm-start persistence for the characterization cache: Snapshot
// exports its completed rough and full entries as plain exported
// structs (JSON-friendly, float64 round-trips bit-exactly), Seed
// installs them into a fresh cache. Keys are re-stated in exported form
// rather than re-derived, so a seeded cache hits exactly where the
// populating run's cache did.
// Seeding never clobbers entries computed in this process (memo.Seed
// semantics), and a snapshot taken mid-run simply omits in-flight work.

import (
	"repro/internal/ceff"
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
// Circuit is the held circuit's byte encoding. It travels as bytes, not
// as a string: encoding/json rewrites invalid UTF-8 in a string to
// U+FFFD, which would merge distinct keys on a warm load.
type FullEntry struct {
	Cell    string
	Rising  bool
	Slew    uint64 // exact float bits
	Node    string
	Circuit []byte
	Result  ceff.Result
}

// CharSnapshot is the persistable content of a CharCache.
type CharSnapshot struct {
	Rough []RoughEntry
	Full  []FullEntry
}

// Snapshot exports the cache's completed entries.
func (cc *CharCache) Snapshot() *CharSnapshot {
	snap := &CharSnapshot{}
	for k, v := range cc.rough.Snapshot() {
		snap.Rough = append(snap.Rough, RoughEntry{
			Cell: k.cell, Rising: k.rising, SlewBucket: k.slewB, LumpBucket: k.lumpB, Model: v,
		})
	}
	for k, v := range cc.full.Snapshot() {
		snap.Full = append(snap.Full, FullEntry{
			Cell: k.cell, Rising: k.rising, Slew: k.slew, Node: k.node, Circuit: []byte(k.ckt), Result: v,
		})
	}
	return snap
}

// Seed installs a snapshot's entries (none for a nil snapshot). Entries
// whose keys are already resident lose to the resident value.
func (cc *CharCache) Seed(snap *CharSnapshot) {
	if snap == nil {
		return
	}
	for _, e := range snap.Rough {
		cc.rough.Seed(roughKey{e.Cell, e.Rising, e.SlewBucket, e.LumpBucket}, e.Model)
	}
	for _, e := range snap.Full {
		cc.full.Seed(fullKey{e.Cell, e.Rising, e.Slew, e.Node, string(e.Circuit)}, e.Result)
	}
}
