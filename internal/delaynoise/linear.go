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
//
//lint:ignore noiselint/testonly cross-package test fixture: the ceff, thevenin and holdres bit pins and benchmarks rebuild the analysis's C-effective problems through it
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
//
//lint:ignore noiselint/testonly cross-package test fixture: the lsim bit pins run the analysis's own victim superposition run through it
func VictimRun(ctx context.Context, c *Case, opt Options) (*netlist.Circuit, lsim.Options, error) {
	e, err := newEngine(ctx, c, opt)
	if err != nil {
		return nil, lsim.Options{}, err
	}
	return e.circuit(e.victim.model.SourceWaveform(), e.victim.model.Rth, e.aggRth()), e.linearOptions(), nil
}

// probes is the list of nodes every linear run records.
func (e *engine) probes() []string {
	return []string{e.c.Net.VictimIn, e.c.sink()}
}

// linearOptions are the transient options of every linear run.
func (e *engine) linearOptions() lsim.Options {
	return lsim.Options{TStop: e.horizon, Step: e.step, InitDC: true, Ctx: e.ctx}
}

// aggRth returns every aggressor's Thevenin resistance, the resistance
// that holds it while another driver switches.
func (e *engine) aggRth() []float64 {
	r := make([]float64, len(e.aggs))
	for j := range e.aggs {
		r[j] = e.aggs[j].model.Rth
	}
	return r
}

// switchVictim is the entry of a superposition group that switches the
// victim driver; entry k >= 0 switches aggressor k.
const switchVictim = -1

// circuit assembles the linear circuit of the superposition runs: the
// loaded interconnect with the victim driver on its node, behind
// rVictim with source vicSrc, and aggressor j on its own node, held at
// its initial output by rAggs[j]. Each driver is stamped once, after
// the interconnect, so runs that differ only in their sources share G,
// C and B bit for bit.
func (e *engine) circuit(vicSrc *waveform.PWL, rVictim float64, rAggs []float64) *netlist.Circuit {
	c := e.c
	vdd := c.vdd()
	ckt := e.interconnect.Clone()
	ckt.AddDriver("__vic", c.Net.VictimIn, vicSrc, rVictim)
	for j := range e.aggs {
		ckt.AddDriver(fmt.Sprintf("__hold%d", j), c.Net.AggIn[j],
			waveform.Constant(c.Aggressors[j].initialOutput(vdd)), rAggs[j])
	}
	return ckt
}

// superpose runs one group of superposition simulations over one
// system: the victim driver held by rVictim and aggressor j by
// rAggs[j], every driver at its initial output except the one each
// entry of switching names (switchVictim, or an aggressor index), which
// drives its Thevenin source. The runs step together over one factor
// (lsim.RunGroup), optionally on one PRIMA reduction of the shared
// system, and each returns its waveforms at the probe nodes.
func (e *engine) superpose(rVictim float64, rAggs []float64, switching []int, probes []string) ([]map[string]*waveform.PWL, error) {
	e.opt.Metrics.Counter(mSimLinear).Add(int64(len(switching)))
	start := time.Now()
	defer func() { e.opt.Metrics.Observe(noiseerr.StageSimulate.TimerName(), time.Since(start)) }()
	c := e.c
	ckt := e.circuit(waveform.Constant(c.Victim.initialOutput(c.vdd())), rVictim, rAggs)
	sys, err := mna.Build(ckt)
	if err != nil {
		return nil, err
	}
	// The victim driver's input column follows the interconnect's own
	// sources; aggressor k's is the k-th after it.
	vic := len(ckt.CurrentSources) + len(e.interconnect.Drivers)
	sets := make([][]*waveform.PWL, len(switching))
	for n, k := range switching {
		set := append([]*waveform.PWL(nil), sys.Inputs...)
		if k == switchVictim {
			set[vic] = e.victim.model.SourceWaveform()
		} else {
			set[vic+1+k] = e.aggs[k].model.SourceWaveform()
		}
		sets[n] = set
	}

	var runs []interface {
		Voltage(string) (*waveform.PWL, error)
	}
	opt := e.linearOptions()
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
		res, err := rom.RunGroup(e.ctx, sets, opt)
		if err != nil {
			return nil, err
		}
		for _, r := range res {
			runs = append(runs, r)
		}
	} else {
		res, err := lsim.RunGroup(sys, sets, probes, opt)
		if err != nil {
			return nil, err
		}
		for _, r := range res {
			runs = append(runs, r)
		}
	}
	out := make([]map[string]*waveform.PWL, len(runs))
	for n, r := range runs {
		out[n] = make(map[string]*waveform.PWL, len(probes))
		for _, p := range probes {
			w, err := r.Voltage(p)
			if err != nil {
				return nil, err
			}
			out[n][p] = w
		}
	}
	return out, nil
}

// aggressorNoises runs the superposition simulation of every aggressor
// as one group: aggressor k's Thevenin source transitions while the
// victim is held by rHoldVictim and every other aggressor by its own
// Thevenin resistance. It returns each aggressor's noise (deviation
// from DC) at the receiver input and at the victim driver output.
func (e *engine) aggressorNoises(rHoldVictim float64) (recvIn, drvOut []*waveform.PWL, err error) {
	switching := make([]int, len(e.aggs))
	for k := range switching {
		switching[k] = k
	}
	ws, err := e.superpose(rHoldVictim, e.aggRth(), switching, e.probes())
	if err != nil {
		return nil, nil, fmt.Errorf("delaynoise: aggressor sims: %w", err)
	}
	recvIn, drvOut = e.noises(ws)
	return recvIn, drvOut, nil
}

// noises turns the aggressor runs' waveforms into noise waveforms at
// the receiver input and at the victim driver output.
func (e *engine) noises(ws []map[string]*waveform.PWL) (recvIn, drvOut []*waveform.PWL) {
	for _, w := range ws {
		recvIn = append(recvIn, deviation(w[e.c.sink()]))
		drvOut = append(drvOut, deviation(w[e.c.Net.VictimIn]))
	}
	return recvIn, drvOut
}

// linearPass is the first superposition group of an analysis, with
// every driver held by its Thevenin resistance: the noiseless victim
// waveforms and, when the group ran them, every aggressor's noise.
type linearPass struct {
	noiselessIn, noiselessDrv *waveform.PWL
	recvNoises, drvNoises     []*waveform.PWL
}

// firstPass runs the victim-switching simulation, and with withAggs
// every aggressor's, as one group with each driver held by its Thevenin
// resistance: the fixpoint's first iteration holds the victim by Rth,
// so its aggressor runs share the victim run's system. It then returns
// the noiseless waveforms at the receiver input and victim driver
// output. With Options.AggressorTransient set, the aggressor holding
// resistances are upgraded to transient values — the extension the
// paper sketches at the end of Section 1 ("the proposed approach can
// also be extended to the shorted aggressor driver models"): the
// victim's own transition injects noise on the aggressor nets, and the
// aggregate Thevenin resistance misrepresents how the aggressor drivers
// absorb it, which feeds back into the victim waveform through the
// coupling.
func (e *engine) firstPass(withAggs bool) (linearPass, error) {
	c := e.c
	switching := []int{switchVictim}
	if withAggs {
		for k := range e.aggs {
			switching = append(switching, k)
		}
	}
	probes := e.probes()
	if e.opt.AggressorTransient {
		probes = append(probes, c.Net.AggIn...)
	}
	rHolds := e.aggRth()
	ws, err := e.superpose(e.victim.model.Rth, rHolds, switching, probes)
	if err != nil {
		return linearPass{}, fmt.Errorf("delaynoise: victim sim: %w", err)
	}
	var p linearPass
	p.noiselessIn, p.noiselessDrv = ws[0][c.sink()], ws[0][c.Net.VictimIn]
	p.recvNoises, p.drvNoises = e.noises(ws[1:])
	if !e.opt.AggressorTransient {
		return p, nil
	}
	// Upgrade each aggressor's holding resistance from the noise the
	// victim injected on it, then re-run once (the same single extra
	// iteration the victim-side flow uses).
	for j := range e.aggs {
		spec := e.aggs[j].spec
		vn := deviation(ws[0][c.Net.AggIn[j]]).Shift(gatesim.InputStart - spec.InputStart)
		hr, err := e.opt.Chars.HoldRes(e.ctx, spec.Cell, spec.InputSlew,
			spec.Cell.InputRisingFor(spec.OutputRising),
			e.aggs[j].ceff, e.aggs[j].model.Rth, vn)
		if err != nil {
			return linearPass{}, fmt.Errorf("delaynoise: aggressor %d transient hold: %w", j, err)
		}
		rHolds[j] = hr.Rtr
	}
	ws, err = e.superpose(e.victim.model.Rth, rHolds, []int{switchVictim}, e.probes())
	if err != nil {
		return linearPass{}, fmt.Errorf("delaynoise: victim sim: %w", err)
	}
	p.noiselessIn, p.noiselessDrv = ws[0][c.sink()], ws[0][c.Net.VictimIn]
	return p, nil
}

// deviation subtracts the waveform's initial value, turning an
// absolute-level simulation into a noise (delta) waveform.
func deviation(w *waveform.PWL) *waveform.PWL {
	return w.Offset(-w.At(w.Start()))
}
