package align

import (
	"context"
	"fmt"

	"repro/internal/device"
	"repro/internal/gatesim"
	"repro/internal/noiseerr"
	"repro/internal/spare"
	"repro/internal/waveform"
)

// Table is the paper's 8-point pre-characterization of a receiver gate:
// the worst-case *alignment voltage* Va at the corners of {victim slew} x
// {pulse width} x {pulse height}, all characterized at the minimum
// receiver output load (§3.2 shows larger loads are insensitive to
// alignment, so the min-load alignment is safe everywhere).
//
// Va is the noiseless receiver-input voltage at the moment the composite
// pulse peak occurs; in this coordinate the dependence on width and
// height is close to linear, which is what makes 8 points sufficient.
type Table struct {
	CellName     string
	VictimRising bool
	Vdd          float64

	SlewMin, SlewMax     float64 // victim transition time range, s
	WidthMin, WidthMax   float64 // pulse half-height width range, s
	HeightMin, HeightMax float64 // pulse |height| range, V
	MinLoad              float64 // characterization load, F
	// Vm is the receiver's DC switching threshold, used by the cliff cap
	// in PredictPeakTime.
	Vm float64

	// Va[s][w][h]: s, w, h in {0 = min, 1 = max}.
	Va [2][2][2]float64
}

// Config sets the characterization corners.
type Config struct {
	SlewMin, SlewMax     float64
	WidthMin, WidthMax   float64
	HeightMin, HeightMax float64 // positive magnitudes, V
	MinLoad              float64
	Grid                 int // exhaustive-search grid per corner (default 25)
}

func (c *Config) defaults() error {
	if c.Grid == 0 {
		c.Grid = 25
	}
	switch {
	case c.SlewMin <= 0 || c.SlewMax <= c.SlewMin:
		return noiseerr.Invalidf("align: invalid slew range [%g, %g]", c.SlewMin, c.SlewMax)
	case c.WidthMin <= 0 || c.WidthMax <= c.WidthMin:
		return noiseerr.Invalidf("align: invalid width range [%g, %g]", c.WidthMin, c.WidthMax)
	case c.HeightMin <= 0 || c.HeightMax <= c.HeightMin:
		return noiseerr.Invalidf("align: invalid height range [%g, %g]", c.HeightMin, c.HeightMax)
	case c.MinLoad < 0:
		return noiseerr.Invalidf("align: negative MinLoad")
	}
	return nil
}

// DefaultConfig returns the corner set used throughout the experiments,
// scaled to the default technology.
func DefaultConfig(tech *device.Technology) Config {
	return Config{
		SlewMin: 60e-12, SlewMax: 600e-12,
		WidthMin: 40e-12, WidthMax: 400e-12,
		// Heights above ~0.35*Vdd drive a lightly loaded receiver into the
		// functional-noise (full glitch) regime, where "delay" is set by a
		// re-crossing and grows without bound as the pulse moves later.
		// Delay-noise analysis stays below that regime (the paper's Fig 3
		// notes its receiver-output noise stays under 100 mV).
		HeightMin: 0.1 * tech.Vdd, HeightMax: 0.35 * tech.Vdd,
		MinLoad: 2e-15,
	}
}

// refTransition builds the synthetic noiseless victim transition used for
// characterization: a saturated ramp with the given full-swing duration.
func refTransition(vdd, slew float64, rising bool) *waveform.PWL {
	const start = 200e-12
	if rising {
		return waveform.Ramp(start, slew, 0, vdd)
	}
	return waveform.Ramp(start, slew, vdd, 0)
}

// signedHeight orients a pulse magnitude against the victim transition
// (a rising victim is retarded by a negative pulse and vice versa).
func signedHeight(mag float64, victimRising bool) float64 {
	if victimRising {
		return -mag
	}
	return mag
}

// Precharacterize runs the 8 corner searches for a receiver cell, each an
// ExhaustiveWorst over cfg.Grid points at the minimum load. At the
// default grid of 25 the climb needs about 19 receiver simulations per
// corner on the library's cells, where the whole grid and its
// refinement passes take 33: about 153 runs per table.
func Precharacterize(recv *device.Cell, victimRising bool, cfg Config) (*Table, error) {
	return PrecharacterizeContext(context.Background(), recv, victimRising, cfg)
}

// PrecharacterizeContext is Precharacterize with cancellation support,
// threaded into every corner's exhaustive search. It counts itself busy
// (spare.Enter) for its whole run, so the searches' forks take only
// CPUs no other analysis holds.
func PrecharacterizeContext(ctx context.Context, recv *device.Cell, victimRising bool, cfg Config) (*Table, error) {
	spare.Enter()
	defer spare.Leave()
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	vdd := recv.Tech.Vdd
	tab := &Table{
		CellName:     recv.Name,
		VictimRising: victimRising,
		Vdd:          vdd,
		SlewMin:      cfg.SlewMin, SlewMax: cfg.SlewMax,
		WidthMin: cfg.WidthMin, WidthMax: cfg.WidthMax,
		HeightMin: cfg.HeightMin, HeightMax: cfg.HeightMax,
		MinLoad: cfg.MinLoad,
	}
	vm, err := gatesim.SwitchingThresholdContext(ctx, recv)
	if err != nil {
		return nil, fmt.Errorf("align: switching threshold of %s: %w", recv.Name, err)
	}
	tab.Vm = vm
	obj := Objective{Receiver: recv, Load: cfg.MinLoad, VictimRising: victimRising, Ctx: ctx}
	slews := [2]float64{cfg.SlewMin, cfg.SlewMax}
	widths := [2]float64{cfg.WidthMin, cfg.WidthMax}
	heights := [2]float64{cfg.HeightMin, cfg.HeightMax}
	for si, slew := range slews {
		noiseless := refTransition(vdd, slew, victimRising)
		for wi, w := range widths {
			for hi, h := range heights {
				pulse := Pulse{Height: signedHeight(h, victimRising), Width: w}.Waveform()
				res, err := obj.ExhaustiveWorst(noiseless, pulse, cfg.Grid)
				if err != nil {
					return nil, fmt.Errorf("align: corner s=%g w=%g h=%g: %w", slew, w, h, err)
				}
				tab.Va[si][wi][hi] = res.Va
			}
		}
	}
	return tab, nil
}

// bilinear interpolates Va over (width, height) at one slew corner, with
// inputs clamped to the characterized ranges.
func (t *Table) bilinear(si int, width, height float64) float64 {
	u := clamp((width-t.WidthMin)/(t.WidthMax-t.WidthMin), 0, 1)
	v := clamp((height-t.HeightMin)/(t.HeightMax-t.HeightMin), 0, 1)
	a := t.Va[si][0][0]*(1-v) + t.Va[si][0][1]*v
	b := t.Va[si][1][0]*(1-v) + t.Va[si][1][1]*v
	return a*(1-u) + b*u
}

// crossVa maps an alignment voltage to a peak time on the actual
// noiseless waveform (clamping Va inside the waveform's range).
func (t *Table) crossVa(noiseless *waveform.PWL, va float64) (float64, error) {
	if t.VictimRising {
		_, max := noiseless.Max()
		_, min := noiseless.Min()
		va = clamp(va, min+1e-9, max-1e-9)
		return noiseless.CrossRising(va)
	}
	_, max := noiseless.Max()
	_, min := noiseless.Min()
	va = clamp(va, min+1e-9, max-1e-9)
	return noiseless.CrossFalling(va)
}

// PredictPeakTime predicts the worst-case pulse-peak time for an actual
// noiseless receiver-input waveform and measured pulse parameters,
// following the paper's lookup procedure: bilinear interpolation of Va in
// (width, |height|) at both slew corners, mapping each Va to a time on
// the instance waveform, then linear interpolation of the *time* across
// the victim edge rate.
//
// For tall pulses the delay-vs-alignment surface has a cliff just past
// the point where the pulse dip stops reaching the receiver's switching
// threshold (the "last crossing" then jumps discontinuously earlier).
// That boundary is where the noiseless transition reaches Vm + |height|
// (rising victim; the analog of the refs [5][6] interconnect rule with
// the gate's real threshold), so the table prediction is capped just
// inside it; interpolation error past the cliff would otherwise collapse
// the predicted delay noise.
// load is the actual receiver output load: the cliff only exists at
// light loads (heavy loads low-pass the discontinuity away, Fig 7(a)),
// so the cap is skipped when load exceeds a few times the
// characterization load.
func (t *Table) PredictPeakTime(noiseless *waveform.PWL, edgeRate, width, heightMag, load float64) (float64, error) {
	vaLo := t.bilinear(0, width, heightMag)
	vaHi := t.bilinear(1, width, heightMag)
	tLo, err := t.crossVa(noiseless, vaLo)
	if err != nil {
		return 0, fmt.Errorf("align: predict (slew-min corner): %w", err)
	}
	tHi, err := t.crossVa(noiseless, vaHi)
	if err != nil {
		return 0, fmt.Errorf("align: predict (slew-max corner): %w", err)
	}
	u := clamp((edgeRate-t.SlewMin)/(t.SlewMax-t.SlewMin), 0, 1)
	tp := tLo + u*(tHi-tLo)
	if load > 8*t.MinLoad {
		return tp, nil
	}
	// Cliff cap (only binds when the pulse is tall enough for its dip to
	// reach the receiver threshold at the predicted position).
	vm := t.Vm
	if vm == 0 {
		vm = t.Vdd / 2 // tables from older runs lack Vm; fall back
	}
	var cliffVa float64
	if t.VictimRising {
		cliffVa = vm + heightMag
	} else {
		cliffVa = vm - heightMag
	}
	tCliff, err := t.crossVa(noiseless, cliffVa)
	if err == nil {
		eps := 0.015 * clamp(edgeRate, t.SlewMin, t.SlewMax)
		if tp > tCliff-eps {
			tp = tCliff - eps
		}
	}
	return tp, nil
}

// NumPoints returns the number of characterization points in the table
// (the paper's headline: 8).
func (t *Table) NumPoints() int { return 8 }
