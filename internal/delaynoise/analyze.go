package delaynoise

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/align"
	"repro/internal/device"
	"repro/internal/gatesim"
	"repro/internal/holdres"
	"repro/internal/metrics"
	"repro/internal/noiseerr"
	"repro/internal/spare"
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
	// PRIMAOrder, when positive, reduces the interconnect with PRIMA to
	// the given order before the linear runs.
	PRIMAOrder int
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
	// Thevenin fits and C-effective iterations) across analyses with
	// single-flight semantics. Batch engines set this; single-net
	// callers can leave it nil.
	Chars *CharCache
	// Metrics, when non-nil, receives engine instrumentation: linear and
	// nonlinear simulation counts, per-stage wall time, and cache
	// hit/miss counters.
	Metrics *metrics.Registry
}

func (o *Options) defaults() {
	if o.MaxIterations == 0 {
		o.MaxIterations = 3
	}
}

// The flow's fixed tolerances: the Rtr iterations stop once Rtr moves by
// at most rtrTol of itself, every linear run steps by linearStep, and
// the exhaustive alignment search evaluates searchGrid grid points.
const (
	rtrTol     = 0.05
	linearStep = 1e-12 // s
	searchGrid = 21
)

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

	// QuietRecvOut is the noiseless receiver output waveform; only
	// AnalyzeQuiet keeps it. NoisyRecvIn is the superposed receiver input
	// (noiseless + composite shifted to TPeak) of the noisy report run,
	// and NoisyRecvOut that run's output. Both outputs end where the
	// settled-tail certificate stopped their runs
	// (align.Objective.OutputSettled), so they hold the full runs'
	// crossings but not their tails: path-level analysis hands them to
	// the next stage, which reads only the crossings.
	QuietRecvOut *waveform.PWL
	NoisyRecvIn  *waveform.PWL
	NoisyRecvOut *waveform.PWL
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
//
// The analysis's independent solves (each driver's fits, each
// aggressor's transient hold, the report stage's two receiver runs, an
// exhaustive search's points) are the parts of forks that take idle
// CPUs (internal/spare); the analysis counts itself busy for its whole
// run, and its result is the same bits however its forks ran.
func AnalyzeContext(ctx context.Context, c *Case, opt Options) (*Result, error) {
	spare.Enter()
	defer spare.Leave()
	opt.defaults()
	charStart := time.Now()
	e, err := newEngine(ctx, c, opt, opt.Hold == HoldTransient)
	if err != nil {
		return nil, noiseerr.InStage(noiseerr.StageCharacterize, err)
	}
	opt.Metrics.Observe(noiseerr.StageCharacterize.TimerName(), time.Since(charStart))
	first, err := e.firstPass(true)
	if err != nil {
		return nil, noiseerr.InStage(noiseerr.StageSimulate, err)
	}
	noiselessIn, noiselessDrv := first.noiselessIn, first.noiselessDrv
	res := &Result{
		VictimCeff: e.victim.ceff,
		VictimRth:  e.victim.model.Rth,
		VictimRtr:  e.victim.model.Rth,
	}
	res.NoiselessRecvIn = noiselessIn

	obj := c.Objective(ctx, opt.Metrics)

	rHold := e.victim.model.Rth
	var composite *waveform.PWL
	var tPeak float64
	recvNoises, drvNoises := first.recvNoises, first.drvNoises
	for iter := 1; iter <= opt.MaxIterations; iter++ {
		res.Iterations = iter
		if iter > 1 {
			// Iteration 1 held the victim by Rth and ran with the
			// victim-switching simulation; later ones hold it by Rtr.
			if recvNoises, drvNoises, err = e.aggressorNoises(rHold); err != nil {
				return nil, noiseerr.InStage(noiseerr.StageSimulate, err)
			}
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
		hr, err := e.hold.rtr(ctx, vn)
		opt.Metrics.Observe(noiseerr.StageHoldres.TimerName(), time.Since(holdStart))
		if err != nil {
			return nil, noiseerr.InStage(noiseerr.StageHoldres, fmt.Errorf("delaynoise: holding resistance: %w", err))
		}
		res.VictimRtr = hr.Rtr
		// The loop must run at least twice so the computed Rtr is
		// actually used for the reported noise (iteration 1 always uses
		// Rth); it stops once Rtr is stable.
		if iter > 1 && math.Abs(hr.Rtr-rHold) <= rtrTol*rHold {
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

	// Final delay evaluation with nonlinear receiver simulations. Only
	// crossings are read, so both runs stop at their settled tails with
	// the full runs' crossings; the noisy run's rows are kept as the
	// path handoff (NoisyRecvOut).
	reportStart := time.Now()
	defer func() { opt.Metrics.Observe(noiseerr.StageReport.TimerName(), time.Since(reportStart)) }()
	noisyIn := align.NoisyInput(noiselessIn, composite, tPeak)
	var quietOut float64
	var noisyOutW *waveform.PWL
	err = spare.Do(2, func(k int) error {
		var err error
		if k == 0 {
			if quietOut, err = obj.OutputCross(noiselessIn); err != nil {
				return fmt.Errorf("delaynoise: noiseless receiver: %w", err)
			}
			return nil
		}
		if noisyOutW, err = obj.OutputSettled(noisyIn); err != nil {
			return fmt.Errorf("delaynoise: noisy receiver: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, noiseerr.InStage(noiseerr.StageReport, err)
	}
	noisyOut, err := obj.Cross(noisyOutW)
	if err != nil {
		return nil, noiseerr.InStage(noiseerr.StageReport, fmt.Errorf("delaynoise: noisy receiver: %w", err))
	}
	drv50, err := cross50(noiselessDrv, c.vdd(), c.Victim.OutputRising)
	if err != nil {
		return nil, noiseerr.InStage(noiseerr.StageReport, noiseerr.Numericalf("delaynoise: victim driver output: %w", err))
	}
	res.NoisyRecvIn = noisyIn
	res.NoisyRecvOut = noisyOutW
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

// Objective is the receiver objective the analysis of c evaluates:
// c's receiver and load, driven by the victim's transition, counting
// its simulations (and those stopped at a settled tail) in m, which may
// be nil.
func (c *Case) Objective(ctx context.Context, m *metrics.Registry) align.Objective {
	return align.Objective{
		Receiver:     c.Receiver,
		Load:         c.ReceiverLoad,
		VictimRising: c.Victim.OutputRising,
		Sims:         m.Counter(mSimNonlinearReceiver),
		Settled:      m.Counter(mSimReceiverSettled),
		Ctx:          ctx,
	}
}

// AnalyzeQuiet runs only the quiet half of the flow: driver
// characterization, the noiseless victim simulation (aggressor drivers
// held), and one nonlinear receiver simulation, stopped at its settled
// tail. No aggressor noise pulses are simulated and no alignment search
// runs, so it costs a small fraction of AnalyzeContext. Path-level
// analysis uses it for the noiseless reference chain; the populated
// fields are the driver models, NoiselessRecvIn, QuietRecvOut, and the
// quiet delay figures.
func AnalyzeQuiet(c *Case, opt Options) (*Result, error) {
	return AnalyzeQuietContext(context.Background(), c, opt)
}

// AnalyzeQuietContext is AnalyzeQuiet with cancellation support. Like
// AnalyzeContext, it counts itself busy for its whole run.
func AnalyzeQuietContext(ctx context.Context, c *Case, opt Options) (*Result, error) {
	spare.Enter()
	defer spare.Leave()
	opt.defaults()
	charStart := time.Now()
	e, err := newEngine(ctx, c, opt, false)
	if err != nil {
		return nil, noiseerr.InStage(noiseerr.StageCharacterize, err)
	}
	opt.Metrics.Observe(noiseerr.StageCharacterize.TimerName(), time.Since(charStart))
	first, err := e.firstPass(false)
	if err != nil {
		return nil, noiseerr.InStage(noiseerr.StageSimulate, err)
	}
	noiselessIn, noiselessDrv := first.noiselessIn, first.noiselessDrv
	res := &Result{
		VictimCeff:      e.victim.ceff,
		VictimRth:       e.victim.model.Rth,
		VictimRtr:       e.victim.model.Rth,
		NoiselessRecvIn: noiselessIn,
		Iterations:      1,
	}
	obj := c.Objective(ctx, opt.Metrics)
	reportStart := time.Now()
	defer func() { opt.Metrics.Observe(noiseerr.StageReport.TimerName(), time.Since(reportStart)) }()
	quietOutW, err := obj.OutputSettled(noiselessIn)
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
			w, err = obj.ExhaustiveBest(noiseless, composite, searchGrid)
		} else {
			w, err = obj.ExhaustiveWorst(noiseless, composite, searchGrid)
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
	dts := make([]float64, len(drvNoises))
	for k := range drvNoises {
		pt, _ := recvNoises[k].Peak()
		dts[k] = tPeak - pt
	}
	return waveform.SumShifted(drvNoises, dts)
}

// holdDrive derives one driver's transient holding resistances at its
// fixed operating point. The noiseless drive of the derivation depends
// only on that point, not on the noise, so it runs once, on the first
// derivation or ahead of it (drive), and every later one reuses it:
// holdres.FromNoiseless then returns what holdres.ComputeContext would,
// bit for bit. An analysis keeps one for its victim across its Rtr
// iterations; nothing outlives the analysis.
type holdDrive struct {
	cell      *device.Cell
	slew      float64
	inRising  bool
	ceff, rth float64
	first     *gatesim.DriveResult // the noiseless drive, once run
	err       error                // the noiseless drive's error
}

// newHoldDrive is the holdDrive of a characterized driver.
func newHoldDrive(d driverChar) holdDrive {
	spec := d.spec
	return holdDrive{cell: spec.Cell, slew: spec.InputSlew, inRising: spec.Cell.InputRisingFor(spec.OutputRising), ceff: d.ceff, rth: d.model.Rth}
}

// drive runs the noiseless drive. A failure is kept for the first
// derivation to report, after its input check, as a derivation that ran
// the drive itself would.
func (h *holdDrive) drive(ctx context.Context) {
	first, err := holdres.Noiseless(ctx, h.cell, h.slew, h.inRising, h.ceff)
	if err != nil {
		h.err = err
		return
	}
	h.first = &first
}

// rtr derives the holding resistance under the injected noise vn, in
// the characterization time frame.
func (h *holdDrive) rtr(ctx context.Context, vn *waveform.PWL) (*holdres.Result, error) {
	if err := holdres.Check(h.ceff, h.rth, vn); err != nil {
		return nil, err
	}
	if h.first == nil && h.err == nil {
		h.drive(ctx)
	}
	if h.err != nil {
		return nil, h.err
	}
	return holdres.FromNoiseless(ctx, h.cell, h.slew, h.inRising, h.ceff, h.rth, vn, *h.first)
}

// cross50 returns the 50% crossing of a full-swing transition.
func cross50(w *waveform.PWL, vdd float64, rising bool) (float64, error) {
	if rising {
		return w.CrossRising(vdd / 2)
	}
	return w.CrossFalling(vdd / 2)
}
