package delaynoise

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/align"
	"repro/internal/gatesim"
	"repro/internal/metrics"
	"repro/internal/noiseerr"
	"repro/internal/waveform"
)

// HoldModel selects the resistance that holds the shorted victim driver
// during aggressor superposition simulations.
type HoldModel int

const (
	// HoldThevenin is the traditional model: the aggregate transition
	// resistance Rth (the paper's 48%-error baseline).
	HoldThevenin HoldModel = iota
	// HoldTransient is the paper's contribution: the transient holding
	// resistance Rtr matched to the nonlinear noise response.
	HoldTransient
)

// String names the holding model for reports.
func (h HoldModel) String() string {
	if h == HoldThevenin {
		return "thevenin"
	}
	return "transient"
}

// AlignMethod selects how the composite pulse is aligned against the
// victim transition.
type AlignMethod int

const (
	// AlignExhaustive searches the alignment space with nonlinear
	// receiver simulations (the expensive golden approach).
	AlignExhaustive AlignMethod = iota
	// AlignReceiverInput is the refs [5][6] baseline: maximize the
	// interconnect delay at the receiver *input* (peak at Vdd/2 + Vp).
	AlignReceiverInput
	// AlignPrechar uses the paper's 8-point pre-characterization table
	// (Options.Table must be set).
	AlignPrechar
)

// String names the alignment method for reports.
func (a AlignMethod) String() string {
	switch a {
	case AlignExhaustive:
		return "exhaustive"
	case AlignReceiverInput:
		return "receiver-input"
	default:
		return "prechar"
	}
}

// Window optionally constrains the pulse-peak time (switching-window
// constraint from timing analysis, refs [8][9]).
type Window struct {
	Lo, Hi float64
}

// Options configure an analysis.
type Options struct {
	Hold  HoldModel
	Align AlignMethod
	Table *align.Table // required for AlignPrechar

	// MaxIterations bounds the linear-model / alignment fixpoint loop
	// (default 3; the paper reports 1-2 suffice).
	MaxIterations int
	// RtrTol is the relative Rtr convergence tolerance (default 5%).
	RtrTol float64
	// Step is the linear-simulation time step (default 1 ps).
	Step float64
	// PRIMAOrder, when positive, reduces the interconnect with PRIMA to
	// the given order before the linear runs.
	PRIMAOrder int
	// SearchGrid is the exhaustive-alignment grid (default 21).
	SearchGrid int
	// Window constrains the pulse peak time when non-nil.
	Window *Window
	// AggressorTransient extends the transient-holding-resistance idea
	// to the shorted aggressor drivers in the victim-switching simulation
	// (the optional extension the paper sketches in Section 1).
	AggressorTransient bool
	// Minimize flips the alignment objective to the speed-up analysis:
	// the aligned pulse minimizes the combined delay (for aggressors
	// switching in the victim's direction), bounding the early edge of
	// downstream timing windows. DelayNoise then comes out negative.
	// Only AlignExhaustive and AlignReceiverInput support it.
	Minimize bool

	// Chars, when non-nil, shares driver characterizations (rough
	// Thevenin fits, C-effective iterations, transient holding
	// resistances) across analyses with single-flight semantics. Batch
	// engines set this; single-net callers can leave it nil.
	Chars *CharCache
	// ROMs, when non-nil, shares PRIMA reduced-order models across
	// analyses, keyed by a content hash of the assembled linear system.
	// Only consulted when PRIMAOrder is positive.
	ROMs *ROMCache
	// Metrics, when non-nil, receives engine instrumentation: linear and
	// nonlinear simulation counts, per-stage wall time, and cache
	// hit/miss counters.
	Metrics *metrics.Registry
}

func (o *Options) defaults() {
	if o.MaxIterations == 0 {
		o.MaxIterations = 3
	}
	if o.RtrTol == 0 {
		o.RtrTol = 0.05
	}
	if o.Step == 0 {
		o.Step = 1e-12
	}
	if o.SearchGrid == 0 {
		o.SearchGrid = 21
	}
}

// Result is the outcome of one per-net analysis.
type Result struct {
	// Driver models.
	VictimCeff float64
	VictimRth  float64
	VictimRtr  float64 // equals VictimRth under HoldThevenin

	// Linear waveforms at the receiver input.
	NoiselessRecvIn *waveform.PWL
	NoisePulses     []*waveform.PWL // per aggressor, at nominal timing
	NoisePeakTimes  []float64       // nominal peak time of each pulse
	Composite       *waveform.PWL   // peak-aligned composite (peak at t=0)
	Pulse           align.Pulse     // measured composite height/width

	// Alignment.
	TPeak float64 // chosen composite peak time (absolute)

	// Nonlinear receiver outputs from the final report stage — the
	// alignment-objective waveforms themselves, retained so path-level
	// analysis can feed a stage's noisy output to the next stage's
	// input without re-simulating. NoisyRecvIn is the superposed input
	// (noiseless + composite shifted to TPeak) that produced
	// NoisyRecvOut.
	QuietRecvOut *waveform.PWL
	NoisyRecvOut *waveform.PWL
	NoisyRecvIn  *waveform.PWL
	// OutputRising is the receiver output transition direction.
	OutputRising bool
	// Absolute crossing times backing the delay figures below:
	// VictimDrv50 is the victim driver output 50% crossing,
	// Quiet/NoisyOutCross the final receiver output 50% crossings.
	VictimDrv50   float64
	QuietOutCross float64
	NoisyOutCross float64

	// Delays (combined = victim driver output 50% to receiver output 50%).
	QuietCombinedDelay float64
	NoisyCombinedDelay float64
	DelayNoise         float64 // NoisyCombinedDelay - QuietCombinedDelay
	// InterconnectDelayNoise is the receiver-input (50%) delay shift, the
	// objective the paper argues is insufficient.
	InterconnectDelayNoise float64

	Iterations int
}

// Analyze runs the full linear-model + alignment flow on one case.
func Analyze(c *Case, opt Options) (*Result, error) {
	return AnalyzeContext(context.Background(), c, opt)
}

// AnalyzeContext is Analyze with cancellation/deadline support: the
// context is threaded through every characterization, linear and
// nonlinear simulation, and alignment search, so a canceled analysis
// aborts mid-simulation within a bounded number of solver steps. Errors
// classify under internal/noiseerr (errors.Is against the sentinel
// classes) and carry the failing pipeline stage in a
// noiseerr.StageError.
func AnalyzeContext(ctx context.Context, c *Case, opt Options) (*Result, error) {
	opt.defaults()
	charStart := time.Now()
	e, err := newEngine(ctx, c, opt)
	if err != nil {
		return nil, noiseerr.InStage(noiseerr.StageCharacterize, err)
	}
	opt.Metrics.Observe(noiseerr.StageCharacterize.TimerName(), time.Since(charStart))
	noiselessIn, noiselessDrv, err := e.victimNoiseless()
	if err != nil {
		return nil, noiseerr.InStage(noiseerr.StageSimulate, err)
	}
	res := &Result{
		VictimCeff: e.victim.ceff,
		VictimRth:  e.victim.model.Rth,
		VictimRtr:  e.victim.model.Rth,
	}
	res.NoiselessRecvIn = noiselessIn

	obj := align.Objective{
		Receiver:     c.Receiver,
		Load:         c.ReceiverLoad,
		VictimRising: c.Victim.OutputRising,
		Sims:         opt.Metrics.Counter(mSimNonlinearReceiver),
		Settled:      opt.Metrics.Counter(mSimReceiverSettled),
		Ctx:          ctx,
	}

	rHold := e.victim.model.Rth
	var composite *waveform.PWL
	var tPeak float64
	var recvNoises, drvNoises []*waveform.PWL
	for iter := 1; iter <= opt.MaxIterations; iter++ {
		res.Iterations = iter
		recvNoises = recvNoises[:0]
		drvNoises = drvNoises[:0]
		for k := range e.aggs {
			rn, dn, err := e.aggressorNoise(k, rHold)
			if err != nil {
				return nil, noiseerr.InStage(noiseerr.StageSimulate, err)
			}
			recvNoises = append(recvNoises, rn)
			drvNoises = append(drvNoises, dn)
		}
		composite, err = align.Composite(recvNoises...)
		if err != nil {
			return nil, noiseerr.InStage(noiseerr.StageAlign, fmt.Errorf("delaynoise: composite: %w", err))
		}
		pulse, err := align.Params(composite)
		if err != nil {
			return nil, noiseerr.InStage(noiseerr.StageAlign, fmt.Errorf("delaynoise: composite params: %w", err))
		}
		res.Pulse = pulse

		alignStart := time.Now()
		tPeak, err = e.chooseAlignment(obj, noiselessIn, composite, pulse, opt)
		opt.Metrics.Observe(noiseerr.StageAlign.TimerName(), time.Since(alignStart))
		if err != nil {
			return nil, noiseerr.InStage(noiseerr.StageAlign, err)
		}
		if opt.Window != nil {
			tPeak = math.Max(opt.Window.Lo, math.Min(opt.Window.Hi, tPeak))
		}

		if opt.Hold == HoldThevenin {
			break
		}
		// Transient holding resistance: build the total noise at the
		// victim driver output with every aggressor shifted so its
		// receiver-input peak lands on tPeak, then recompute Rtr. The
		// noise is translated into the characterization time frame (the
		// holdres driver simulation starts its input at
		// gatesim.InputStart, not at the case's victim input start).
		vn := alignedDriverNoise(recvNoises, drvNoises, tPeak)
		vn = vn.Shift(gatesim.InputStart - c.Victim.InputStart)
		holdStart := time.Now()
		hr, err := opt.Chars.HoldRes(ctx, c.Victim.Cell, c.Victim.InputSlew, c.Victim.Cell.InputRisingFor(c.Victim.OutputRising),
			e.victim.ceff, e.victim.model.Rth, vn)
		opt.Metrics.Observe(noiseerr.StageHoldres.TimerName(), time.Since(holdStart))
		if err != nil {
			return nil, noiseerr.InStage(noiseerr.StageHoldres, fmt.Errorf("delaynoise: holding resistance: %w", err))
		}
		res.VictimRtr = hr.Rtr
		// The loop must run at least twice so the computed Rtr is
		// actually used for the reported noise (iteration 1 always uses
		// Rth); it stops once Rtr is stable.
		if iter > 1 && math.Abs(hr.Rtr-rHold) <= opt.RtrTol*rHold {
			break
		}
		rHold = hr.Rtr
	}
	res.NoisePulses = recvNoises
	res.NoisePeakTimes = make([]float64, len(recvNoises))
	for k, rn := range recvNoises {
		res.NoisePeakTimes[k], _ = rn.Peak()
	}
	res.Composite = composite
	res.TPeak = tPeak

	// Final delay evaluation with nonlinear receiver simulations. The
	// output waveforms are retained on the result (not just their
	// crossings): stage k's NoisyRecvOut is exactly what path-level
	// analysis hands to stage k+1.
	reportStart := time.Now()
	defer func() { opt.Metrics.Observe(noiseerr.StageReport.TimerName(), time.Since(reportStart)) }()
	noisyIn := align.NoisyInput(noiselessIn, composite, tPeak)
	quietOutW, err := obj.Output(noiselessIn)
	if err != nil {
		return nil, noiseerr.InStage(noiseerr.StageReport, fmt.Errorf("delaynoise: noiseless receiver: %w", err))
	}
	quietOut, err := obj.Cross(quietOutW)
	if err != nil {
		return nil, noiseerr.InStage(noiseerr.StageReport, fmt.Errorf("delaynoise: noiseless receiver: %w", err))
	}
	noisyOutW, err := obj.Output(noisyIn)
	if err != nil {
		return nil, noiseerr.InStage(noiseerr.StageReport, fmt.Errorf("delaynoise: noisy receiver: %w", err))
	}
	noisyOut, err := obj.Cross(noisyOutW)
	if err != nil {
		return nil, noiseerr.InStage(noiseerr.StageReport, fmt.Errorf("delaynoise: noisy receiver: %w", err))
	}
	drv50, err := cross50(noiselessDrv, c.vdd(), c.Victim.OutputRising)
	if err != nil {
		return nil, noiseerr.InStage(noiseerr.StageReport, noiseerr.Numericalf("delaynoise: victim driver output: %w", err))
	}
	res.QuietRecvOut = quietOutW
	res.NoisyRecvOut = noisyOutW
	res.NoisyRecvIn = noisyIn
	res.OutputRising = obj.OutputRising()
	res.VictimDrv50 = drv50
	res.QuietOutCross = quietOut
	res.NoisyOutCross = noisyOut
	res.QuietCombinedDelay = quietOut - drv50
	res.NoisyCombinedDelay = noisyOut - drv50
	res.DelayNoise = noisyOut - quietOut
	quietIn, err := obj.InputCross(noiselessIn)
	if err == nil {
		if noisyInCross, err2 := obj.InputCross(noisyIn); err2 == nil {
			res.InterconnectDelayNoise = noisyInCross - quietIn
		}
	}
	return res, nil
}

// AnalyzeQuiet runs only the quiet half of the flow: driver
// characterization, the noiseless victim simulation (aggressor drivers
// held), and one nonlinear receiver simulation. No aggressor noise
// pulses are simulated and no alignment search runs, so it costs a
// small fraction of AnalyzeContext. Path-level analysis uses it for the
// noiseless reference chain; the populated fields are the driver
// models, NoiselessRecvIn, QuietRecvOut, and the quiet delay figures.
func AnalyzeQuiet(c *Case, opt Options) (*Result, error) {
	return AnalyzeQuietContext(context.Background(), c, opt)
}

// AnalyzeQuietContext is AnalyzeQuiet with cancellation support.
func AnalyzeQuietContext(ctx context.Context, c *Case, opt Options) (*Result, error) {
	opt.defaults()
	charStart := time.Now()
	e, err := newEngine(ctx, c, opt)
	if err != nil {
		return nil, noiseerr.InStage(noiseerr.StageCharacterize, err)
	}
	opt.Metrics.Observe(noiseerr.StageCharacterize.TimerName(), time.Since(charStart))
	noiselessIn, noiselessDrv, err := e.victimNoiseless()
	if err != nil {
		return nil, noiseerr.InStage(noiseerr.StageSimulate, err)
	}
	res := &Result{
		VictimCeff:      e.victim.ceff,
		VictimRth:       e.victim.model.Rth,
		VictimRtr:       e.victim.model.Rth,
		NoiselessRecvIn: noiselessIn,
		Iterations:      1,
	}
	obj := align.Objective{
		Receiver:     c.Receiver,
		Load:         c.ReceiverLoad,
		VictimRising: c.Victim.OutputRising,
		Sims:         opt.Metrics.Counter(mSimNonlinearReceiver),
		Settled:      opt.Metrics.Counter(mSimReceiverSettled),
		Ctx:          ctx,
	}
	reportStart := time.Now()
	defer func() { opt.Metrics.Observe(noiseerr.StageReport.TimerName(), time.Since(reportStart)) }()
	quietOutW, err := obj.Output(noiselessIn)
	if err != nil {
		return nil, noiseerr.InStage(noiseerr.StageReport, fmt.Errorf("delaynoise: noiseless receiver: %w", err))
	}
	quietOut, err := obj.Cross(quietOutW)
	if err != nil {
		return nil, noiseerr.InStage(noiseerr.StageReport, fmt.Errorf("delaynoise: noiseless receiver: %w", err))
	}
	drv50, err := cross50(noiselessDrv, c.vdd(), c.Victim.OutputRising)
	if err != nil {
		return nil, noiseerr.InStage(noiseerr.StageReport, noiseerr.Numericalf("delaynoise: victim driver output: %w", err))
	}
	res.QuietRecvOut = quietOutW
	res.OutputRising = obj.OutputRising()
	res.VictimDrv50 = drv50
	res.QuietOutCross = quietOut
	res.QuietCombinedDelay = quietOut - drv50
	return res, nil
}

// chooseAlignment dispatches on the alignment method.
func (e *engine) chooseAlignment(obj align.Objective, noiseless, composite *waveform.PWL, pulse align.Pulse, opt Options) (float64, error) {
	switch opt.Align {
	case AlignExhaustive:
		var w align.WorstResult
		var err error
		if opt.Minimize {
			w, err = obj.ExhaustiveBest(noiseless, composite, opt.SearchGrid)
		} else {
			w, err = obj.ExhaustiveWorst(noiseless, composite, opt.SearchGrid)
		}
		if err != nil {
			return 0, fmt.Errorf("delaynoise: exhaustive alignment: %w", err)
		}
		return w.TPeak, nil
	case AlignReceiverInput:
		var tp float64
		var err error
		if opt.Minimize {
			tp, err = align.ReceiverInputSpeedup(noiseless, pulse.Height, e.c.vdd(), e.c.Victim.OutputRising)
		} else {
			tp, err = align.ReceiverInputAlignment(noiseless, pulse.Height, e.c.vdd(), e.c.Victim.OutputRising)
		}
		if err != nil {
			return 0, fmt.Errorf("delaynoise: receiver-input alignment: %w", err)
		}
		return tp, nil
	case AlignPrechar:
		if opt.Minimize {
			return 0, noiseerr.Invalidf("delaynoise: AlignPrechar does not support Minimize")
		}
		if opt.Table == nil {
			return 0, noiseerr.Invalidf("delaynoise: AlignPrechar requires Options.Table")
		}
		er, err := align.EdgeRate(noiseless, e.c.vdd(), e.c.Victim.OutputRising)
		if err != nil {
			return 0, err
		}
		tp, err := opt.Table.PredictPeakTime(noiseless, er, pulse.Width, math.Abs(pulse.Height), e.c.ReceiverLoad)
		if err != nil {
			return 0, fmt.Errorf("delaynoise: prechar alignment: %w", err)
		}
		return tp, nil
	default:
		return 0, noiseerr.Invalidf("delaynoise: unknown alignment method %d", opt.Align)
	}
}

// alignedDriverNoise sums the victim-driver-output noise contributions
// with each aggressor shifted so its receiver-input noise peak occurs at
// tPeak.
func alignedDriverNoise(recvNoises, drvNoises []*waveform.PWL, tPeak float64) *waveform.PWL {
	shifted := make([]*waveform.PWL, len(drvNoises))
	for k := range drvNoises {
		pt, _ := recvNoises[k].Peak()
		shifted[k] = drvNoises[k].Shift(tPeak - pt)
	}
	return waveform.Sum(shifted...)
}

// cross50 returns the 50% crossing of a full-swing transition.
func cross50(w *waveform.PWL, vdd float64, rising bool) (float64, error) {
	if rising {
		return w.CrossRising(vdd / 2)
	}
	return w.CrossFalling(vdd / 2)
}
