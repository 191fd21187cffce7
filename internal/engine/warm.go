package engine

// Warm start: a Session's expensive derived state — alignment tables
// and driver characterizations — saved to and loaded from a
// content-addressed warmstore. The store key is derived from
// WarmIdentity, which captures everything that state depends on, so a
// session never loads state computed under a different technology,
// library, or table grid: such state lives under a different key and
// reads as a miss.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/align"
	"repro/internal/colblob"
	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/warmstore"
)

// Identity is the warm-store address of a session's derived state. All
// fields are pure comparable values, the same key discipline the memo
// caches follow and the cachekey analyzer enforces.
//
// The state depends on nothing else. Tables are keyed by (cell,
// direction) and built from the library and the grid alone; rough fits
// are taken at the canonical point of their bucket, whose resolution is
// a constant; C-effective entries are keyed by the exact bytes of their
// held circuit. So per-net and path runs share one entry.
type Identity struct {
	Tech    string // technology name
	Library uint64 // fingerprint of the full library (cells, devices, Vdd)
	Grid    int    // pre-characterization search grid (0 = default)
}

// WarmIdentity captures everything the session's cached state depends
// on. Two sessions with equal identities compute interchangeable tables
// and characterizations.
func (s *Session) WarmIdentity() Identity {
	return Identity{
		Tech:    s.lib.Tech.Name,
		Library: fingerprintLibrary(s.lib),
		Grid:    s.grid,
	}
}

// WarmKey returns the session's content address in a warmstore.
func (s *Session) WarmKey() string { return warmstore.Key(s.WarmIdentity()) }

// fingerprintLibrary hashes the complete electrical content of a cell
// library: technology parameters and, per cell in name order, topology
// and device sizes. Any change to any of it moves the fingerprint, so a
// warm store shared across library revisions can never serve stale
// characterizations. Floats are rendered via %#v (shortest round-trip
// formatting), which distinguishes any two distinct values, and the
// rendering is named by its colblob content id, as warm-store keys are.
func fingerprintLibrary(lib *device.Library) uint64 {
	b := fmt.Appendf(nil, "%#v|", *lib.Tech)
	names := lib.Names()
	sort.Strings(names)
	for _, name := range names {
		cell := lib.Cells[name]
		b = fmt.Appendf(b, "%s|%t|", name, cell.NonInverting)
		for _, f := range cell.FETs {
			b = fmt.Appendf(b, "%s|%s|%s|%s|%x|%#v|", f.Name, f.D, f.G, f.S,
				math.Float64bits(f.W), *f.Params)
		}
	}
	return colblob.ID(b)
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
}

// SaveWarm persists the session's current derived state under its
// identity key. In-flight computations are omitted (they'll be in the
// next save); a nil store is a no-op.
func (s *Session) SaveWarm(st *warmstore.Store) error {
	if st == nil {
		return nil
	}
	state := warmState{Chars: s.chars.Snapshot()}
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
	return true, nil
}
