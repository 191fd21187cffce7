package engine

// Warm start: a Session's expensive derived state — alignment tables,
// driver characterizations, and PRIMA reductions — saved to and loaded
// from a content-addressed warmstore. The store key is derived from
// WarmIdentity, which captures everything that state depends on, so a
// session never loads state computed under a different technology,
// library, or characterization configuration: such state lives under a
// different key and reads as a miss.

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/align"
	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/warmstore"
)

// Identity is the warm-store address of a session's derived state. All
// fields are pure comparable values (floats carried as IEEE-754 bits),
// the same key discipline the memo caches follow and the cachekey
// analyzer enforces.
type Identity struct {
	Tech    string // technology name
	Library uint64 // fingerprint of the full library (cells, devices, Vdd)
	Grid    int    // pre-characterization search grid (0 = default)
	CharRes uint64 // char-cache bucket resolution, float bits (0 = cache off)
	// Topology is the stage-graph topology hash of a path-mode workload
	// (pathnoise.TopologyHash; 0 for per-net runs). Included so per-net
	// and path runs never share a warm-store key: the characterization
	// state a path run accumulates is conditioned on derived stage
	// inputs, and a key collision would let either mode seed the other
	// with alignment tables built for the wrong input population.
	Topology uint64
}

// WarmIdentity captures everything the session's cached state depends
// on. Two sessions with equal identities compute interchangeable tables,
// characterizations, and reductions.
func (s *Session) WarmIdentity() Identity {
	return Identity{
		Tech:     s.lib.Tech.Name,
		Library:  fingerprintLibrary(s.lib),
		Grid:     s.grid,
		CharRes:  math.Float64bits(s.chars.Res()),
		Topology: s.topology,
	}
}

// WarmKey returns the session's content address in a warmstore.
func (s *Session) WarmKey() string { return warmstore.Key(s.WarmIdentity()) }

// fingerprintLibrary hashes the complete electrical content of a cell
// library: technology parameters and, per cell in name order, topology
// and device sizes. Any change to any of it moves the fingerprint, so a
// warm store shared across library revisions can never serve stale
// characterizations. Floats are hashed via %#v (shortest round-trip
// formatting), which distinguishes any two distinct values.
func fingerprintLibrary(lib *device.Library) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v|", *lib.Tech)
	names := lib.Names()
	sort.Strings(names)
	for _, name := range names {
		cell := lib.Cells[name]
		fmt.Fprintf(h, "%s|%t|", name, cell.NonInverting)
		for _, f := range cell.FETs {
			fmt.Fprintf(h, "%s|%s|%s|%s|%x|%#v|", f.Name, f.D, f.G, f.S,
				math.Float64bits(f.W), *f.Params)
		}
	}
	return h.Sum64()
}

// warmTable is one persisted alignment pre-characterization, keyed the
// way Session.Table looks it up.
type warmTable struct {
	Cell   string
	Rising bool
	Table  *align.Table
}

// warmState is the persisted bundle: everything a cold session would
// have to recompute.
type warmState struct {
	Tables []warmTable
	Chars  *delaynoise.CharSnapshot
	ROMs   []delaynoise.ROMEntry
}

// SaveWarm persists the session's current derived state under its
// identity key. In-flight computations are omitted (they'll be in the
// next save); a nil store is a no-op.
func (s *Session) SaveWarm(st *warmstore.Store) error {
	if st == nil {
		return nil
	}
	state := warmState{Chars: s.chars.Snapshot(), ROMs: s.roms.Snapshot()}
	for k, tab := range s.tables.Snapshot() {
		state.Tables = append(state.Tables, warmTable{Cell: k.cell, Rising: k.rising, Table: tab})
	}
	return st.Save(s.WarmKey(), &state)
}

// LoadWarm seeds the session's caches from the store entry under its
// identity key, reporting whether one was found. Entries already
// resident (computed by this process) win over loaded ones; a missing
// or corrupt entry is a miss, not an error.
func (s *Session) LoadWarm(st *warmstore.Store) (bool, error) {
	var state warmState
	ok, err := st.Load(s.WarmKey(), &state)
	if err != nil || !ok {
		return false, err
	}
	for _, e := range state.Tables {
		if e.Table != nil {
			s.tables.Seed(tableKey{e.Cell, e.Rising}, e.Table)
		}
	}
	s.chars.Seed(state.Chars)
	s.roms.Seed(state.ROMs)
	return true, nil
}
