// Package pathgraph defines the stage-graph model of multi-stage
// fabrics: ordered chains of victim nets where stage k's receiver
// drives stage k+1's victim net. It is the leaf vocabulary shared by
// the workload layer (internal/workload path files) and the path
// analysis engine (internal/pathnoise), so workload definition never
// depends on the analysis stack — only on the graph shape and its
// chaining invariants.
package pathgraph

import (
	"fmt"

	"repro/internal/delaynoise"
	"repro/internal/noiseerr"
)

// Stage is one link of a path: a named victim net whose receiver drives
// the next stage's victim net.
type Stage struct {
	// Net names the stage's case (the workload case name; journal
	// records and reports key on it).
	Net string
	// Case is the stage's coupled cluster. For stages after the first,
	// Case.Victim.InputSlew and InputStart are the *nominal* values the
	// workload generator assigned; the analysis replaces the slew with
	// one derived from the upstream receiver-output waveform and keeps
	// InputStart as the stage-local time anchor (pathnoise chain.go).
	Case *delaynoise.Case
}

// Path is an ordered chain of stages.
type Path struct {
	Name   string
	Stages []Stage
}

// Validate checks the chaining invariants: every stage is a valid case,
// and stage k's receiver is electrically the next stage's victim driver
// — same cell, and a transition direction that follows through the
// chain (stage k+1's victim output direction is what its cell produces
// from stage k's receiver output edge).
func (p *Path) Validate() error {
	if p.Name == "" {
		return noiseerr.Invalidf("pathgraph: path has no name")
	}
	if len(p.Stages) == 0 {
		return noiseerr.Invalidf("pathgraph: path %s has no stages", p.Name)
	}
	for k, st := range p.Stages {
		if st.Case == nil {
			return noiseerr.Invalidf("pathgraph: path %s stage %d (%s) has no case", p.Name, k, st.Net)
		}
		if err := st.Case.Validate(); err != nil {
			return fmt.Errorf("pathgraph: path %s stage %d (%s): %w", p.Name, k, st.Net, err)
		}
		if k == 0 {
			continue
		}
		prev := p.Stages[k-1]
		if prev.Case.Receiver != st.Case.Victim.Cell && prev.Case.Receiver.Name != st.Case.Victim.Cell.Name {
			return noiseerr.Invalidf("pathgraph: path %s stage %d: victim cell %s does not match stage %d receiver %s",
				p.Name, k, st.Case.Victim.Cell.Name, k-1, prev.Case.Receiver.Name)
		}
		// The edge handed across the boundary is the previous receiver's
		// output; the stage's declared victim output direction must be
		// what its cell produces from that edge.
		handRising := prev.Case.Receiver.OutputRisingFor(prev.Case.Victim.OutputRising)
		want := st.Case.Victim.Cell.OutputRisingFor(handRising)
		if st.Case.Victim.OutputRising != want {
			return noiseerr.Invalidf("pathgraph: path %s stage %d: victim output direction %v breaks the chain (stage %d hands a %s edge through %s)",
				p.Name, k, st.Case.Victim.OutputRising, k-1, RiseFall(handRising), st.Case.Victim.Cell.Name)
		}
	}
	return nil
}

// RiseFall names a transition direction for diagnostics.
func RiseFall(rising bool) string {
	if rising {
		return "rising"
	}
	return "falling"
}

// ValidatePaths validates a path set and rejects duplicate path names
// (journals, schedulers, and the gateway all key on them).
func ValidatePaths(paths []*Path) error {
	seen := make(map[string]bool, len(paths))
	for _, p := range paths {
		if err := p.Validate(); err != nil {
			return err
		}
		if seen[p.Name] {
			return noiseerr.Invalidf("pathgraph: duplicate path name %q", p.Name)
		}
		seen[p.Name] = true
	}
	return nil
}

// StageRising returns the receiver-output transition direction of stage
// k — the direction of the waveform handed to stage k+1. It is a pure
// function of the path structure, so resumed runs can rebuild handoff
// directions without re-simulating.
func (p *Path) StageRising(k int) bool {
	st := p.Stages[k]
	return st.Case.Receiver.OutputRisingFor(st.Case.Victim.OutputRising)
}
