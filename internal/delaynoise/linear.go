package delaynoise

import (
	"context"
	"fmt"
	"time"

	"repro/internal/gatesim"
	"repro/internal/lsim"
	"repro/internal/mna"
	"repro/internal/netlist"
	"repro/internal/noiseerr"
	"repro/internal/thevenin"
	"repro/internal/waveform"
)

// driverChar is a characterized driver: its effective load and Thevenin
// model, with the model's time base shifted to the driver's actual input
// start time.
type driverChar struct {
	spec  DriverSpec
	ceff  float64
	model thevenin.Model
}

// engine carries the per-case state of one analysis.
type engine struct {
	ctx context.Context
	c   *Case
	opt Options

	interconnect *netlist.Circuit // loaded with receiver caps
	victim       driverChar
	aggs         []driverChar

	horizon float64
	step    float64
}

// newEngine validates the case and runs the two-pass driver
// characterization: a rough lumped-load Thevenin fit for every driver,
// then C-effective iterations for each driver with all other drivers
// held by their rough resistances.
func newEngine(ctx context.Context, c *Case, opt Options) (*engine, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	opt.defaults()
	e := &engine{ctx: ctx, c: c, opt: opt, interconnect: c.loadedInterconnect()}
	loads, err := c.driverLoads(ctx, opt, e.interconnect)
	if err != nil {
		return nil, err
	}

	// Pass 2: C-effective per driver with the others held.
	charOf := func(l DriverLoad) (driverChar, error) {
		spec := l.Spec
		res, err := opt.Chars.Characterize(ctx, spec.Cell, spec.InputSlew, spec.Cell.InputRisingFor(spec.OutputRising), l.Net, l.Node)
		if err != nil {
			return driverChar{}, err
		}
		m := res.Model
		// Shift the model time base from the characterization frame to
		// the driver's actual input start.
		m.T0 += spec.InputStart - gatesim.InputStart
		return driverChar{spec: spec, ceff: res.Ceff, model: m}, nil
	}
	e.victim, err = charOf(loads[0])
	if err != nil {
		return nil, fmt.Errorf("delaynoise: victim characterization: %w", err)
	}
	e.aggs = make([]driverChar, len(c.Aggressors))
	for k := range c.Aggressors {
		e.aggs[k], err = charOf(loads[k+1])
		if err != nil {
			return nil, fmt.Errorf("delaynoise: aggressor %d characterization: %w", k, err)
		}
	}

	// Simulation horizon: past every transition plus a settling tail.
	end := e.victim.model.T0 + e.victim.model.Dt
	for _, a := range e.aggs {
		if t := a.model.T0 + a.model.Dt; t > end {
			end = t
		}
	}
	tail := 25 * e.victim.model.Rth * c.victimLump()
	if tail < 1.5e-9 {
		tail = 1.5e-9
	}
	e.horizon = end + tail
	e.step = opt.Step
	return e, nil
}

// DriverLoad is one driver's C-effective characterization problem: the
// net it drives, with every other driver held, and its output node.
type DriverLoad struct {
	Spec DriverSpec
	Net  *netlist.Circuit
	Node string
}

// DriverLoads returns the C-effective problems the analysis solves, the
// victim's first and then each aggressor's: pass 1 fits every driver
// to its lumped load (through opt.Chars), and each pass-2 net is the
// loaded interconnect with every other driver held at its initial
// output by its rough Thevenin resistance.
func DriverLoads(ctx context.Context, c *Case, opt Options) ([]DriverLoad, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c.driverLoads(ctx, opt, c.loadedInterconnect())
}

// driverLoads is DriverLoads on a validated case and its loaded
// interconnect.
func (c *Case) driverLoads(ctx context.Context, opt Options, interconnect *netlist.Circuit) ([]DriverLoad, error) {
	// Pass 1: rough lumped fits.
	roughRth := func(spec DriverSpec, lump float64) (float64, error) {
		m, err := opt.Chars.RoughFit(ctx, spec.Cell, spec.InputSlew, spec.Cell.InputRisingFor(spec.OutputRising), lump)
		return m.Rth, err
	}
	vRth, err := roughRth(c.Victim, c.victimLump())
	if err != nil {
		return nil, fmt.Errorf("delaynoise: victim rough fit: %w", err)
	}
	aRth := make([]float64, len(c.Aggressors))
	for k, a := range c.Aggressors {
		spec := c.Net.Spec.Aggressors[k]
		aRth[k], err = roughRth(a, spec.Line.CGround+spec.CCouple+c.aggLoad())
		if err != nil {
			return nil, fmt.Errorf("delaynoise: aggressor %d rough fit: %w", k, err)
		}
	}

	vdd := c.vdd()
	holdOthers := func(skipVictim bool, skipAgg int) *netlist.Circuit {
		ckt := interconnect.Clone()
		if !skipVictim {
			ckt.AddDriver("__holdv", c.Net.VictimIn,
				waveform.Constant(c.Victim.initialOutput(vdd)), vRth)
		}
		for k := range c.Aggressors {
			if k == skipAgg {
				continue
			}
			ckt.AddDriver(fmt.Sprintf("__holda%d", k), c.Net.AggIn[k],
				waveform.Constant(c.Aggressors[k].initialOutput(vdd)), aRth[k])
		}
		return ckt
	}
	loads := make([]DriverLoad, 0, 1+len(c.Aggressors))
	loads = append(loads, DriverLoad{Spec: c.Victim, Net: holdOthers(true, -1), Node: c.Net.VictimIn})
	for k, a := range c.Aggressors {
		loads = append(loads, DriverLoad{Spec: a, Net: holdOthers(false, k), Node: c.Net.AggIn[k]})
	}
	return loads, nil
}

// VictimRun returns the victim-switching superposition run of the
// analysis: the victim's Thevenin source driving the loaded
// interconnect with every aggressor held by its Thevenin resistance,
// and the transient options the analysis runs it with. It
// characterizes the drivers first.
func VictimRun(ctx context.Context, c *Case, opt Options) (*netlist.Circuit, lsim.Options, error) {
	e, err := newEngine(ctx, c, opt)
	if err != nil {
		return nil, lsim.Options{}, err
	}
	rHolds := make([]float64, len(e.aggs))
	for j := range e.aggs {
		rHolds[j] = e.aggs[j].model.Rth
	}
	return e.victimCircuit(rHolds), e.linearOptions(), nil
}

// probeSet is the list of nodes every linear run records.
func (e *engine) probes() []string {
	return []string{e.c.Net.VictimIn, e.c.sink()}
}

// linearOptions are the transient options of every linear run.
func (e *engine) linearOptions() lsim.Options {
	return lsim.Options{TStop: e.horizon, Step: e.step, InitDC: true, Ctx: e.ctx}
}

// runLinear simulates a fully assembled linear circuit and returns the
// waveforms at the standard probe nodes, optionally through a PRIMA
// reduction.
func (e *engine) runLinear(ckt *netlist.Circuit) (map[string]*waveform.PWL, error) {
	return e.runLinearProbes(ckt, e.probes())
}

// runLinearProbes is runLinear with an explicit probe list.
func (e *engine) runLinearProbes(ckt *netlist.Circuit, probes []string) (map[string]*waveform.PWL, error) {
	e.opt.Metrics.Counter(mSimLinear).Inc()
	start := time.Now()
	defer func() { e.opt.Metrics.Observe(noiseerr.StageSimulate.TimerName(), time.Since(start)) }()
	sys, err := mna.Build(ckt)
	if err != nil {
		return nil, err
	}
	opt := e.linearOptions()
	out := map[string]*waveform.PWL{}
	if q := e.opt.PRIMAOrder; q > 0 && q < sys.NumStates() {
		reduceStart := time.Now()
		rom, err := e.opt.ROMs.Reduce(e.ctx, sys, q)
		e.opt.Metrics.Observe(noiseerr.StageReduce.TimerName(), time.Since(reduceStart))
		if err != nil {
			return nil, noiseerr.InStage(noiseerr.StageReduce, err)
		}
		// PRIMA matches the first block moment, so the DC point of the
		// reduced system projects exactly onto the full DC solution; the
		// reduced InitDC start is therefore exact for these circuits.
		res, err := rom.RunContext(e.ctx, opt)
		if err != nil {
			return nil, err
		}
		for _, p := range probes {
			w, err := res.Voltage(p)
			if err != nil {
				return nil, err
			}
			out[p] = w
		}
		return out, nil
	}
	res, err := lsim.Run(sys, opt)
	if err != nil {
		return nil, err
	}
	for _, p := range probes {
		w, err := res.Voltage(p)
		if err != nil {
			return nil, err
		}
		out[p] = w
	}
	return out, nil
}

// aggressorNoise runs the superposition simulation for aggressor k: its
// Thevenin source transitions while the victim is held by rHoldVictim and
// every other aggressor by its own Thevenin resistance. It returns the
// noise (deviation from DC) at the receiver input and the victim driver
// output.
func (e *engine) aggressorNoise(k int, rHoldVictim float64) (recvIn, drvOut *waveform.PWL, err error) {
	c := e.c
	vdd := c.vdd()
	ckt := e.interconnect.Clone()
	ckt.AddDriver("__agg", c.Net.AggIn[k], e.aggs[k].model.SourceWaveform(), e.aggs[k].model.Rth)
	ckt.AddDriver("__vic", c.Net.VictimIn,
		waveform.Constant(c.Victim.initialOutput(vdd)), rHoldVictim)
	for j := range e.aggs {
		if j == k {
			continue
		}
		ckt.AddDriver(fmt.Sprintf("__hold%d", j), c.Net.AggIn[j],
			waveform.Constant(c.Aggressors[j].initialOutput(vdd)), e.aggs[j].model.Rth)
	}
	ws, err := e.runLinear(ckt)
	if err != nil {
		return nil, nil, fmt.Errorf("delaynoise: aggressor %d sim: %w", k, err)
	}
	recvIn = deviation(ws[c.sink()])
	drvOut = deviation(ws[c.Net.VictimIn])
	return recvIn, drvOut, nil
}

// victimNoiseless runs the victim-switching superposition simulation (all
// aggressors held) and returns the noiseless waveforms at the receiver
// input and victim driver output. With Options.AggressorTransient set,
// the aggressor holding resistances are upgraded to transient values —
// the extension the paper sketches at the end of Section 1 ("the
// proposed approach can also be extended to the shorted aggressor driver
// models"): the victim's own transition injects noise on the aggressor
// nets, and the aggregate Thevenin resistance misrepresents how the
// aggressor drivers absorb it, which feeds back into the victim waveform
// through the coupling.
func (e *engine) victimNoiseless() (recvIn, drvOut *waveform.PWL, err error) {
	rHolds := make([]float64, len(e.aggs))
	for j := range e.aggs {
		rHolds[j] = e.aggs[j].model.Rth
	}
	recvIn, drvOut, aggOuts, err := e.victimNoiselessWith(rHolds)
	if err != nil {
		return nil, nil, err
	}
	if !e.opt.AggressorTransient {
		return recvIn, drvOut, nil
	}
	// Upgrade each aggressor's holding resistance from the noise the
	// victim injected on it, then re-run once (the same single extra
	// iteration the victim-side flow uses).
	for j := range e.aggs {
		spec := e.aggs[j].spec
		vn := aggOuts[j].Shift(gatesim.InputStart - spec.InputStart)
		hr, err := e.opt.Chars.HoldRes(e.ctx, spec.Cell, spec.InputSlew,
			spec.Cell.InputRisingFor(spec.OutputRising),
			e.aggs[j].ceff, e.aggs[j].model.Rth, vn)
		if err != nil {
			return nil, nil, fmt.Errorf("delaynoise: aggressor %d transient hold: %w", j, err)
		}
		rHolds[j] = hr.Rtr
	}
	recvIn, drvOut, _, err = e.victimNoiselessWith(rHolds)
	return recvIn, drvOut, err
}

// victimNoiselessWith runs the victim-switching simulation with explicit
// aggressor holding resistances and additionally returns the noise each
// aggressor driver output sees (deviation waveforms, one per aggressor).
func (e *engine) victimNoiselessWith(rHolds []float64) (recvIn, drvOut *waveform.PWL, aggOuts []*waveform.PWL, err error) {
	c := e.c
	ws, err := e.runLinearProbes(e.victimCircuit(rHolds), append(e.probes(), c.Net.AggIn...))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("delaynoise: victim sim: %w", err)
	}
	aggOuts = make([]*waveform.PWL, len(c.Net.AggIn))
	for j, node := range c.Net.AggIn {
		aggOuts[j] = deviation(ws[node])
	}
	return ws[c.sink()], ws[c.Net.VictimIn], aggOuts, nil
}

// victimCircuit assembles the victim-switching circuit: the victim's
// Thevenin source drives the interconnect and aggressor j is held at
// its initial output by rHolds[j].
func (e *engine) victimCircuit(rHolds []float64) *netlist.Circuit {
	c := e.c
	vdd := c.vdd()
	ckt := e.interconnect.Clone()
	ckt.AddDriver("__vic", c.Net.VictimIn, e.victim.model.SourceWaveform(), e.victim.model.Rth)
	for j := range e.aggs {
		ckt.AddDriver(fmt.Sprintf("__hold%d", j), c.Net.AggIn[j],
			waveform.Constant(c.Aggressors[j].initialOutput(vdd)), rHolds[j])
	}
	return ckt
}

// deviation subtracts the waveform's initial value, turning an
// absolute-level simulation into a noise (delta) waveform.
func deviation(w *waveform.PWL) *waveform.PWL {
	return w.Offset(-w.At(w.Start()))
}
