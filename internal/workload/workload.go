// Package workload generates the synthetic net populations standing in
// for the paper's "300 nets from a high-performance microprocessor
// block": seeded random victim/aggressor clusters whose topology class
// matches Figure 1(a) — distributed RC lines with neighbor coupling,
// library drivers of mixed strength, and receiver gates with lumped
// loads. All generation is deterministic in the seed.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/rcnet"
)

// Profile bounds the random net parameters.
type Profile struct {
	// Interconnect.
	SegmentsMin, SegmentsMax int
	VictimRMin, VictimRMax   float64 // total victim line resistance, ohm
	VictimCMin, VictimCMax   float64 // total victim ground capacitance, F
	CouplingMin, CouplingMax float64 // coupling cap per aggressor as a fraction of victim ground C
	AggressorsMin            int
	AggressorsMax            int

	// Drivers.
	VictimCells    []string // candidate victim driver cells (weaker)
	AggressorCells []string // candidate aggressor driver cells (stronger)
	ReceiverCells  []string
	SlewMin        float64 // driver input slew range
	SlewMax        float64
	AggSlewMin     float64
	AggSlewMax     float64
	RecvLoadMin    float64
	RecvLoadMax    float64

	// Timing: aggressor nominal input start offset from the victim's.
	AggOffsetMin, AggOffsetMax float64
}

// DefaultProfile returns the population used for the Figure 13/14
// experiments. The regime matches the paper's results section: moderate
// drivers (Rth around 1-2 kOhm, like the paper's 1203-ohm example) with
// slow victim edges crossed by strong, fast aggressors, so the noise
// pulse is short relative to the victim transition and the victim driver
// is saturated (low transient conductance) when it lands — the condition
// under which the aggregate Thevenin resistance underestimates the
// injected noise.
func DefaultProfile() Profile {
	return Profile{
		SegmentsMin: 4, SegmentsMax: 6,
		VictimRMin: 200, VictimRMax: 600,
		VictimCMin: 25e-15, VictimCMax: 60e-15,
		CouplingMin: 0.6, CouplingMax: 1.2,
		AggressorsMin: 1, AggressorsMax: 3,
		VictimCells:    []string{"INVX2", "INVX2P", "INVX2N", "INVX4", "NAND2X2"},
		AggressorCells: []string{"INVX8", "INVX16"},
		ReceiverCells:  []string{"INVX1", "INVX2", "INVX4", "NAND2X1", "NOR2X1", "INVX2P"},
		SlewMin:        250e-12, SlewMax: 600e-12,
		AggSlewMin: 40e-12, AggSlewMax: 120e-12,
		RecvLoadMin: 3e-15, RecvLoadMax: 40e-15,
		AggOffsetMin: 150e-12, AggOffsetMax: 400e-12,
	}
}

// Generator produces random cases from a profile.
type Generator struct {
	Lib     *device.Library
	Profile Profile
	rng     *rand.Rand
}

// NewGenerator builds a deterministic generator.
func NewGenerator(lib *device.Library, p Profile, seed int64) *Generator {
	return &Generator{Lib: lib, Profile: p, rng: rand.New(rand.NewSource(seed))}
}

func (g *Generator) uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.rng.Float64()
}

func (g *Generator) intBetween(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + g.rng.Intn(hi-lo+1)
}

func (g *Generator) pick(names []string) (*device.Cell, error) {
	return g.Lib.Cell(names[g.rng.Intn(len(names))])
}

// Next generates the i-th case (the index only names the nets; the random
// stream supplies the parameters).
func (g *Generator) Next(i int) (*delaynoise.Case, error) {
	p := g.Profile
	victimCell, err := g.pick(p.VictimCells)
	if err != nil {
		return nil, err
	}
	receiver, err := g.pick(p.ReceiverCells)
	if err != nil {
		return nil, err
	}
	victimRising := g.rng.Intn(2) == 0
	return g.nextCase(fmt.Sprintf("n%d", i), victimCell, victimRising, receiver)
}

// nextCase draws one random cluster around the given drivers (the
// shared body of Next and NextPath; prefix names the interconnect
// lines).
func (g *Generator) nextCase(prefix string, victimCell *device.Cell, victimRising bool, receiver *device.Cell) (*delaynoise.Case, error) {
	p := g.Profile
	segs := g.intBetween(p.SegmentsMin, p.SegmentsMax)
	vC := g.uniform(p.VictimCMin, p.VictimCMax)
	spec := rcnet.CoupledSpec{
		Victim: rcnet.LineSpec{
			Name:     prefix + ".v",
			Segments: segs,
			RTotal:   g.uniform(p.VictimRMin, p.VictimRMax),
			CGround:  vC,
		},
	}
	nAgg := g.intBetween(p.AggressorsMin, p.AggressorsMax)
	for k := 0; k < nAgg; k++ {
		// Coupled span: full-length neighbors or partial overlaps.
		from := 0.0
		to := 1.0
		if g.rng.Float64() < 0.4 {
			from = g.uniform(0, 0.4)
			to = g.uniform(from+0.3, 1.0)
		}
		spec.Aggressors = append(spec.Aggressors, rcnet.AggressorSpec{
			Line: rcnet.LineSpec{
				Name:     fmt.Sprintf("%s.a%d", prefix, k),
				Segments: segs,
				RTotal:   g.uniform(p.VictimRMin, p.VictimRMax) * 0.8,
				CGround:  g.uniform(p.VictimCMin, p.VictimCMax) * 0.8,
			},
			CCouple: vC * g.uniform(p.CouplingMin, p.CouplingMax) / float64(nAgg),
			From:    from,
			To:      to,
		})
	}
	net := rcnet.Build(spec)

	const victimStart = 200e-12
	c := &delaynoise.Case{
		Net: net,
		Victim: delaynoise.DriverSpec{
			Cell:         victimCell,
			InputSlew:    g.uniform(p.SlewMin, p.SlewMax),
			OutputRising: victimRising,
			InputStart:   victimStart,
		},
		Receiver:     receiver,
		ReceiverLoad: g.uniform(p.RecvLoadMin, p.RecvLoadMax),
	}
	for k := 0; k < nAgg; k++ {
		aggCell, err := g.pick(p.AggressorCells)
		if err != nil {
			return nil, err
		}
		c.Aggressors = append(c.Aggressors, delaynoise.DriverSpec{
			Cell:      aggCell,
			InputSlew: g.uniform(p.AggSlewMin, p.AggSlewMax),
			// Worst-case delay noise: aggressors switch opposite to the
			// victim so the induced pulse retards the transition.
			OutputRising: !victimRising,
			InputStart:   victimStart + g.uniform(p.AggOffsetMin, p.AggOffsetMax),
		})
	}
	return c, nil
}

// Population generates n cases.
func (g *Generator) Population(n int) ([]*delaynoise.Case, error) {
	out := make([]*delaynoise.Case, 0, n)
	for i := 0; i < n; i++ {
		c, err := g.Next(i)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// BusProfile returns a population resembling parallel routed buses:
// identical mid-strength drivers, full-length neighbor coupling, and
// matched slews — the workload class of examples/busanalysis.
func BusProfile() Profile {
	p := DefaultProfile()
	p.VictimCells = []string{"INVX2", "INVX4"}
	p.AggressorCells = []string{"INVX2", "INVX4"}
	p.CouplingMin, p.CouplingMax = 0.8, 1.2
	p.AggressorsMin, p.AggressorsMax = 2, 2
	p.SlewMin, p.SlewMax = 150e-12, 300e-12
	p.AggSlewMin, p.AggSlewMax = 150e-12, 300e-12
	return p
}

// LongRouteProfile returns a population of long resistive routes: large
// line resistance with strong resistive shielding, the regime where the
// C-effective iteration matters most.
//
//lint:ignore noiselint/testonly the long-route population that the lsim, ceff, align and thevenin bit pins draw their nets from
func LongRouteProfile() Profile {
	p := DefaultProfile()
	p.SegmentsMin, p.SegmentsMax = 8, 12
	p.VictimRMin, p.VictimRMax = 800, 2500
	p.VictimCMin, p.VictimCMax = 60e-15, 150e-15
	p.VictimCells = []string{"INVX4", "INVX8"}
	p.AggressorCells = []string{"INVX8", "INVX16"}
	return p
}
