// Package device provides the nonlinear transistor and gate models used
// as the "SPICE-level" golden reference of the reproduction. The MOSFET
// follows the Sakurai-Newton alpha-power law, smoothed so that current
// and small-signal conductances are continuous everywhere — which is
// exactly the property (strongly varying conductance during a transition)
// that makes the paper's transient holding resistance necessary.
package device

import (
	"fmt"
	"math"
)

// MOSType distinguishes the two device polarities.
type MOSType int

const (
	NMOS MOSType = iota
	PMOS
)

// String names the device polarity.
func (t MOSType) String() string {
	if t == NMOS {
		return "nmos"
	}
	return "pmos"
}

// MOSParams are the alpha-power-law parameters of one device polarity.
// Widths are in meters; K is in A / (V^Alpha * m) so that drain current
// scales linearly with width.
type MOSParams struct {
	Type  MOSType
	Vth   float64 // threshold voltage, V (positive for both polarities)
	Alpha float64 // velocity-saturation index (2 = long channel, ~1.3 here)
	K     float64 // drive factor, A / (V^Alpha * m width)
	Kv    float64 // Vdsat factor: Vdsat = Kv * (Vgst)^(Alpha/2)
	Vs    float64 // subthreshold smoothing width, V
	Gmin  float64 // minimum drain-source conductance per width, S/m
	// Sat is the saturation-knee steepness: the current follows
	// tanh(Sat * vds/Vdsat). Larger values flatten the saturation region
	// (lower output conductance past the knee), matching the near-zero
	// channel-length-modulation gds of a real short-channel device. A
	// value of 1 gives the soft knee of a plain tanh.
	Sat float64
	// CgPerW and CdPerW are gate and drain diffusion capacitance per
	// width, F/m.
	CgPerW float64
	CdPerW float64
}

// softplus is a smooth max(0, x) with width s; its derivative is the
// logistic function.
func softplus(x, s float64) (f, df float64) {
	z := x / s
	switch {
	case z > 40:
		return x, 1
	case z < -40:
		return 0, 0
	}
	e := math.Exp(z)
	return s * math.Log1p(e), e / (1 + e)
}

// Eval returns the drain-source current of a device of width w
// (meters) given terminal voltages vgs and vds (both taken positive in
// the device's conducting sense: for PMOS callers pass vsg and vsd),
// together with the partial derivatives dId/dVgs and dId/dVds when
// derivs is true.
//
// The model is a smoothed alpha-power law:
//
//	Vgst  = softplus(vgs - Vth)
//	Vdsat = Kv * Vgst^(Alpha/2)
//	Id    = K*w * Vgst^Alpha * tanh(Sat * vds / Vdsat)  + Gmin*w*vds
//
// tanh provides the linear-to-saturation transition with continuous
// derivatives: for vds << Vdsat the device is resistive with conductance
// K*w*Vgst^Alpha*Sat/Vdsat, and for vds >> Vdsat the current saturates at
// K*w*Vgst^Alpha with near-zero output conductance. Negative vds is
// handled symmetrically (current reverses sign), which keeps the model
// continuous through zero crossing.
//
// With derivs false Eval returns the same id, bit for bit, and leaves
// gm and gds zero, skipping the derivative work. Callers that discard
// the conductances (residual-only Newton iterations, committed-state
// currents) take the value-only path.
//
// Eval is Gate followed by Finish. Callers that see the same vgs
// again with another vds keep the Gate and call Finish alone.
//
//lint:hot
func (p *MOSParams) Eval(w, vgs, vds float64, derivs bool) (id, gm, gds float64) {
	g := p.Gate(vgs)
	return p.Finish(&g, w, vds, derivs)
}

// Gate holds the terms of one evaluation that depend on vgs alone:
// the smoothed overdrive and its slope, the alpha-power current factor
// and Vdsat, and, once a Finish with derivatives has asked for them,
// their vgs derivatives. It is a pure function of (params, vgs), so a
// Gate kept from an earlier evaluation at the same vgs bits gives
// Finish exactly the inputs a fresh one would.
type Gate struct {
	vgst, dvgst float64
	vga, vdsat  float64
	pw          sharedPow
	// dvga and dvdsat are d(vga)/dvgs and d(vdsat)/dvgs, valid once
	// hasDerivs is set.
	dvga, dvdsat float64
	hasDerivs    bool
}

// Gate computes the vgs-only terms of an evaluation at gate bias vgs
// (device sense, as for Eval). The derivative powers are left for
// Finish to fill when it first needs them.
//
//lint:hot
func (p *MOSParams) Gate(vgs float64) Gate {
	var g Gate
	g.vgst, g.dvgst = softplus(vgs-p.Vth, p.Vs)
	if g.vgst <= 0 {
		return g
	}
	g.pw = newSharedPow(g.vgst)
	g.vga = g.pw.pow(p.Alpha)
	g.vdsat = p.Kv * g.pw.pow(0.5*p.Alpha)
	return g
}

// Finish completes an evaluation of a device of width w at drain bias
// vds from the gate terms g that p.Gate computed; the results are those
// of Eval at the same (vgs, vds, derivs), bit for bit. With derivs true
// it fills g's derivative powers if they are missing, so g must be the
// caller's own.
//
//lint:hot
func (p *MOSParams) Finish(g *Gate, w, vds float64, derivs bool) (id, gm, gds float64) {
	if w <= 0 {
		panic(fmt.Sprintf("device: non-positive width %g", w))
	}
	sign := 1.0
	if vds < 0 {
		// Treat the channel symmetrically for reverse conduction (small
		// undershoots during transients); current simply reverses sign.
		vds = -vds
		sign = -1
	}
	gminI := p.Gmin * w * vds
	if g.vgst <= 0 {
		if !derivs {
			return sign * gminI, 0, 0
		}
		return sign * gminI, 0, p.Gmin * w
	}
	vga, vdsat := g.vga, g.vdsat
	u := vds / vdsat
	th := math.Tanh(p.Sat * u)

	idCore := p.K * w * vga * th
	id = sign * (idCore + gminI)
	if !derivs {
		return id, 0, 0
	}
	sech2 := 1 - th*th

	// dId/dVds: core current via tanh(Sat*u), plus gmin.
	gds = p.K*w*vga*p.Sat*sech2/vdsat + p.Gmin*w

	// dId/dVgs: both Vgst^Alpha and Vdsat depend on vgs.
	// d(vga)/dvgs = Alpha * vgst^(Alpha-1) * dvgst
	// d(u)/dvgs   = -vds/vdsat^2 * dVdsat/dvgs,
	// dVdsat/dvgs = Kv * Alpha/2 * vgst^(Alpha/2-1) * dvgst
	if !g.hasDerivs {
		g.dvga = p.Alpha * g.pw.pow(p.Alpha-1) * g.dvgst
		g.dvdsat = p.Kv * 0.5 * p.Alpha * g.pw.pow(0.5*p.Alpha-1) * g.dvgst
		g.hasDerivs = true
	}
	du := -vds / (vdsat * vdsat) * g.dvdsat
	gm = p.K * w * (g.dvga*th + vga*p.Sat*sech2*du)
	gm *= sign
	return id, gm, gds
}

// Technology bundles the device parameters of a process corner plus the
// supply voltage. The default models a generic 0.18 um-era process at
// Vdd = 1.8 V.
type Technology struct {
	Name string
	Vdd  float64
	N, P MOSParams
}

// Default180 returns the default 0.18 um-class technology used throughout
// the reproduction.
func Default180() *Technology {
	return &Technology{
		Name: "generic-180nm",
		Vdd:  1.8,
		N: MOSParams{
			Type: NMOS, Vth: 0.42, Alpha: 1.3,
			K:  370e-6 / 1e-6, // 370 uA per um at Vgst = 1 V
			Kv: 0.55, Vs: 0.04, Gmin: 1e-9 / 1e-6, Sat: 2.2,
			CgPerW: 1.2e-15 / 1e-6, CdPerW: 0.8e-15 / 1e-6,
		},
		P: MOSParams{
			Type: PMOS, Vth: 0.45, Alpha: 1.4,
			K:  165e-6 / 1e-6,
			Kv: 0.75, Vs: 0.04, Gmin: 1e-9 / 1e-6, Sat: 2.2,
			CgPerW: 1.2e-15 / 1e-6, CdPerW: 0.8e-15 / 1e-6,
		},
	}
}

// Corner derives a process corner from the technology: drive factors are
// scaled by kScale and thresholds shifted by vthShift (volts, applied to
// both polarities). The noise-analysis conclusions should be checked at
// corners because the transient/aggregate conductance contrast that
// drives the Rtr correction shifts with process.
func (t *Technology) Corner(name string, kScale, vthShift float64) *Technology {
	out := *t
	out.Name = name
	out.N.K *= kScale
	out.P.K *= kScale
	out.N.Vth += vthShift
	out.P.Vth += vthShift
	return &out
}

// Fast180 returns the fast (FF-like) corner of the default technology.
//
//lint:ignore noiselint/testonly a process corner that only BenchmarkAblationCorners (bench_test.go) and the nlsim memo fuzz test run
func Fast180() *Technology { return Default180().Corner("generic-180nm-ff", 1.25, -0.05) }

// Slow180 returns the slow (SS-like) corner of the default technology.
//
//lint:ignore noiselint/testonly a process corner that only BenchmarkAblationCorners (bench_test.go) and the nlsim memo fuzz test run
func Slow180() *Technology { return Default180().Corner("generic-180nm-ss", 0.8, +0.05) }
