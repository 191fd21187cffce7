package lsim_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/linalg"
	"repro/internal/lsim"
	"repro/internal/mna"
	"repro/internal/mor"
	"repro/internal/netlist"
	"repro/internal/waveform"
	"repro/internal/workload"
)

// denseReference is the dense path of Run as it was before M went
// through its CSR form and the solve through the compacted LU factors:
// Matrix.MulVecTo applies M and LU.SolveTo solves, over every entry.
func denseReference(sys *mna.System, opt lsim.Options) ([]float64, *linalg.Matrix, error) {
	n := sys.NumStates()
	steps := int((opt.TStop-opt.TStart)/opt.Step + 0.5)
	if steps < 1 {
		steps = 1
	}
	x := make([]float64, n)
	switch {
	case opt.X0 != nil:
		copy(x, opt.X0)
	case opt.InitDC:
		dc, err := dcPoint(sys, opt.TStart)
		if err != nil {
			return nil, nil, err
		}
		copy(x, dc)
	}
	h := opt.Step
	a := sys.C.Clone().Scale(1 / h)
	a.AXPY(0.5, sys.G)
	m := sys.C.Clone().Scale(1 / h)
	m.AXPY(-0.5, sys.G)
	lu, err := linalg.FactorLU(a)
	if err != nil {
		return nil, nil, err
	}
	xNext, rhs, bu := make([]float64, n), make([]float64, n), make([]float64, n)
	uPrev := make([]float64, sys.NumInputs())
	uNow := make([]float64, sys.NumInputs())
	uMid := make([]float64, sys.NumInputs())
	times := make([]float64, steps+1)
	states := linalg.NewMatrix(steps+1, n)
	times[0] = opt.TStart
	copy(states.Data[:n], x)
	inputsAt(sys, uPrev, opt.TStart)
	for k := 1; k <= steps; k++ {
		t := opt.TStart + float64(k)*h
		inputsAt(sys, uNow, t)
		for i := range uMid {
			uMid[i] = 0.5 * (uPrev[i] + uNow[i])
		}
		m.MulVecTo(rhs, x)
		sys.B.MulVecTo(bu, uMid)
		for i := range rhs {
			rhs[i] += bu[i]
		}
		lu.SolveTo(xNext, rhs)
		x, xNext = xNext, x
		times[k] = t
		copy(states.Data[k*n:(k+1)*n], x)
		uPrev, uNow = uNow, uPrev
	}
	return times, states, nil
}

// sameRows reports the first row (of the first rows of want) whose
// time or any state differs from got in its bits, or -1.
func sameRows(got *lsim.Result, times []float64, states *linalg.Matrix, rows int) int {
	n := states.Cols
	for k := 0; k < rows; k++ {
		if math.Float64bits(got.Times[k]) != math.Float64bits(times[k]) {
			return k
		}
		for i := 0; i < n; i++ {
			if math.Float64bits(got.States.Data[k*n+i]) != math.Float64bits(states.Data[k*n+i]) {
				return k
			}
		}
	}
	return -1
}

// rcLine is a small RC line: a ramp through a driver resistance into
// five R-C segments.
func rcLine() *netlist.Circuit {
	ckt := netlist.NewCircuit()
	ckt.AddDriver("drv", "n0", waveform.Ramp(1e-10, 5e-11, 0, 1.8), 300)
	for i := 1; i <= 5; i++ {
		ckt.AddR(fmt.Sprintf("r%d", i), fmt.Sprintf("n%d", i-1), fmt.Sprintf("n%d", i), 80)
		ckt.AddC(fmt.Sprintf("c%d", i), fmt.Sprintf("n%d", i), "0", 4e-15)
	}
	return ckt
}

// rcCircuit is one R-C stage driven by a ramp that starts at t = 0.
func rcCircuit() *netlist.Circuit {
	ckt := netlist.NewCircuit()
	ckt.AddDriver("drv", "out", waveform.Ramp(0, 2e-11, 0, 1.8), 500)
	ckt.AddC("cl", "out", "0", 2e-14)
	return ckt
}

// victimRun builds the victim-switching run of the first net of a
// workload population.
func victimRun(t testing.TB, lib *device.Library, p workload.Profile, path bool) (*mna.System, lsim.Options) {
	t.Helper()
	gen := workload.NewGenerator(lib, p, 20010618)
	var c *delaynoise.Case
	if path {
		_, cs, _, err := gen.NextPath("p0", 3)
		if err != nil {
			t.Fatal(err)
		}
		c = cs[0]
	} else {
		var err error
		if c, err = gen.Next(0); err != nil {
			t.Fatal(err)
		}
	}
	ckt, opt, err := delaynoise.VictimRun(context.Background(), c, delaynoise.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := mna.Build(ckt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Ctx = nil
	return sys, opt
}

// TestDenseStepBitIdentical pins the dense path (M through CSR, the
// solve through the compacted LU) to a copy of the old full dense step,
// bit for bit in every state of every row.
func TestDenseStepBitIdentical(t *testing.T) {
	lib := device.NewLibrary(device.Default180())
	type fixture struct {
		name string
		sys  *mna.System
		opt  lsim.Options
	}
	build := func(ckt *netlist.Circuit) *mna.System {
		sys, err := mna.Build(ckt)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	bus3 := build(lsim.CoupledBus(3, 40))
	rom, err := mor.Reduce(bus3, 8)
	if err != nil {
		t.Fatal(err)
	}
	fixtures := []fixture{
		{"rc-line", build(rcLine()), lsim.Options{TStop: 1e-9, Step: 1e-12, InitDC: true}},
		{"bus-2x12", build(lsim.CoupledBus(2, 12)), lsim.Options{TStop: 2e-9, Step: 2e-12, InitDC: true}},
		{"prima-rom", rom.Reduced, lsim.Options{TStop: 2e-9, Step: 2e-12, InitDC: true}},
	}
	for _, v := range []struct {
		name string
		p    workload.Profile
		path bool
	}{
		{"victim-default", workload.DefaultProfile(), false},
		{"victim-bus", workload.BusProfile(), false},
		{"victim-path", workload.DefaultProfile(), true},
	} {
		sys, opt := victimRun(t, lib, v.p, v.path)
		fixtures = append(fixtures, fixture{v.name, sys, opt})
	}
	for _, f := range fixtures {
		if fac, err := lsim.PreparedFactor(f.sys, f.opt); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		} else if _, ok := fac.(*linalg.CompactLU); !ok {
			t.Fatalf("%s: factored as %T, want the dense LU", f.name, fac)
		}
		got, err := lsim.Run(f.sys, f.opt)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		times, states, err := denseReference(f.sys, f.opt)
		if err != nil {
			t.Fatalf("%s: reference: %v", f.name, err)
		}
		if len(got.Times) != len(times) {
			t.Fatalf("%s: %d rows, reference has %d", f.name, len(got.Times), len(times))
		}
		if k := sameRows(got, times, states, len(times)); k >= 0 {
			t.Errorf("%s: row %d differs from the old dense step", f.name, k)
		}
	}
}

// TestRunToCrossingMatchesRun checks that RunToCrossing records the
// crossing node alone, that its rows are that node's column of Run's
// first k+1 rows, that step k is the first to cross, and that a level
// never crossed returns the column of all of Run.
func TestRunToCrossingMatchesRun(t *testing.T) {
	build := func(ckt *netlist.Circuit) *mna.System {
		sys, err := mna.Build(ckt)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	line := build(rcLine())
	opt := lsim.Options{TStop: 1.5e-9, Step: 1e-12, InitDC: true}
	full, err := lsim.Run(line, opt)
	if err != nil {
		t.Fatal(err)
	}
	// A fine step moves the far node by well under a millivolt per
	// step, so a stop one step early or late shows.
	fineOpt := lsim.Options{TStop: 1.5e-9, Step: 1e-14, InitDC: true}
	fine, err := lsim.Run(line, fineOpt)
	if err != nil {
		t.Fatal(err)
	}
	// The bus's even lines fall from 1.8 V, the odd ones are quiet.
	bus := build(lsim.CoupledBus(2, 12))
	busOpt := lsim.Options{TStop: 2e-9, Step: 2e-12, InitDC: true}
	busFull, err := lsim.Run(bus, busOpt)
	if err != nil {
		t.Fatal(err)
	}
	// An input ramping from t = 0 moves its node on step 1; half of
	// step 1's value is crossed there.
	quick := build(rcCircuit())
	quickFull, err := lsim.Run(quick, opt)
	if err != nil {
		t.Fatal(err)
	}
	iq, _ := quick.NodeIndex("out")
	for _, tc := range []struct {
		name   string
		sys    *mna.System
		opt    lsim.Options
		full   *lsim.Result
		node   string
		level  float64
		rising bool
		k      int // crossing step: -1 never, 0 wherever Run first crosses
	}{
		{"rising", line, opt, full, "n5", 0.9, true, 0},
		{"rising-fine", line, fineOpt, fine, "n5", 0.9, true, 0},
		{"falling", bus, busOpt, busFull, "n0_12", 0.9, false, 0},
		{"step1", quick, opt, quickFull, "out", quickFull.States.At(1, iq) / 2, true, 1},
		{"never", line, opt, full, "n5", 2.5, true, -1},
		{"wrong-direction", line, opt, full, "n5", 0.9, false, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := lsim.RunToCrossing(tc.sys, tc.opt, tc.node, tc.level, tc.rising)
			if err != nil {
				t.Fatal(err)
			}
			rows := len(got.Times)
			if got.States.Rows != rows || got.States.Cols != 1 || len(got.States.Data) != rows {
				t.Fatalf("%d times but a %dx%d state matrix, want the crossing node's column alone", rows, got.States.Rows, got.States.Cols)
			}
			node, _ := tc.sys.NodeIndex(tc.node)
			for k := 0; k < rows; k++ {
				if math.Float64bits(got.Times[k]) != math.Float64bits(tc.full.Times[k]) ||
					math.Float64bits(got.States.At(k, 0)) != math.Float64bits(tc.full.States.At(k, node)) {
					t.Fatalf("row %d differs from Run's %s column", k, tc.node)
				}
			}
			for i := 0; i < tc.sys.NumStates(); i++ {
				if _, err := got.StateWaveform(i); (err == nil) != (i == node) {
					t.Fatalf("state %d: recorded = %v, want only the crossing node %d", i, err == nil, node)
				}
			}
			w, _ := tc.full.Voltage(tc.node)
			part, _ := got.Voltage(tc.node)
			cross, pcross := w.CrossFalling, part.CrossFalling
			if tc.rising {
				cross, pcross = w.CrossRising, part.CrossRising
			}
			tFull, cerr := cross(tc.level)
			if tc.k < 0 {
				if cerr == nil || rows != len(tc.full.Times) {
					t.Fatalf("no crossing expected: got %d of %d rows (cross err %v)", rows, len(tc.full.Times), cerr)
				}
				return
			}
			if cerr != nil {
				t.Fatalf("Run's waveform never crosses %g: %v", tc.level, cerr)
			}
			if tc.k > 0 && rows != tc.k+1 {
				t.Fatalf("stopped after step %d, want %d", rows-1, tc.k)
			}
			// Run's first crossing lies in the last segment kept.
			tPart, err := pcross(tc.level)
			if err != nil || math.Float64bits(tPart) != math.Float64bits(tFull) {
				t.Fatalf("crossing %v (%v), want %v", tPart, err, tFull)
			}
			if rows >= len(tc.full.Times) || tFull <= got.Times[rows-2] {
				t.Fatalf("stopped at step %d, crossing at %v is not in its last segment", rows-1, tFull)
			}
		})
	}
}

// solvePins are FNV-64a digests of the Float64bits of the DC operating
// point at t = 0 and of mor.Reduce(sys, 8)'s reduced G, C and B and its
// basis V, for
// the victim runs of the first net of each workload profile (12-18
// states, the dense factor) and for the coupled bus (123 states, the
// banded factor). They were recorded while DC, the Krylov recurrence
// and the trapezoidal step still each chose their own factorization;
// a digest that moves means the shared choice changed the arithmetic.
var solvePins = []struct {
	name           string
	dc, g, c, b, v uint64
}{
	{"victim-default", 0x9e3e9f57572e32d2, 0xe5de094e44d93ccc, 0x90fa731d965cb563, 0xeb1348216f653e6d, 0x73f2ddc8e82fbb37},
	{"victim-default-path", 0x9e3e9f57572e32d2, 0xe5de094e44d93ccc, 0x90fa731d965cb563, 0xeb1348216f653e6d, 0x73f2ddc8e82fbb37},
	{"victim-bus", 0xe13124bd7b531a74, 0xec993805a814fc4e, 0x7af03d7316081ad6, 0x10910d9c70287358, 0x0ac519de8cc0602f},
	{"victim-bus-path", 0x8022123288f59cb1, 0x63404222c03ffbd1, 0x07d9614ba3522d6d, 0x73c2d431137a3367, 0x96d7dd078ffcd9ff},
	{"victim-longroute", 0x6cc0d97aab9bd118, 0x0d640ac7b65a9ab2, 0x34304df63d10b421, 0x80a7a053a28be333, 0x9d56fd5081254dd6},
	{"victim-longroute-path", 0xb1ca14cd57664c59, 0x2657ffe852bed0d2, 0xd642b6e87a7375a8, 0xd6abb83f7dc8c38d, 0xd9fb8f5f5df976c7},
	{"bus-3x40", 0x9ad5cf9cb25ee374, 0xf348742bba210c61, 0x4e9cb713e146ad90, 0x195d8fa4319578a1, 0xa163152090e7e958},
}

// bitsDigest hashes values as their IEEE-754 bits.
func bitsDigest(vals []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestSolveBitPins holds the DC operating point and the order-8 PRIMA
// model of each pinned system to its recorded bits. The victim systems
// come from driver characterizations, whose digests depend on the
// platform's math library, so the pin runs on amd64 only.
func TestSolveBitPins(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("solve digests are recorded on amd64; %s math kernels round differently", runtime.GOARCH)
	}
	lib := device.NewLibrary(device.Default180())
	systems := map[string]*mna.System{}
	for _, v := range []struct {
		name string
		p    workload.Profile
	}{
		{"victim-default", workload.DefaultProfile()},
		{"victim-bus", workload.BusProfile()},
		{"victim-longroute", workload.LongRouteProfile()},
	} {
		systems[v.name], _ = victimRun(t, lib, v.p, false)
		systems[v.name+"-path"], _ = victimRun(t, lib, v.p, true)
	}
	bus, err := mna.Build(lsim.CoupledBus(3, 40))
	if err != nil {
		t.Fatal(err)
	}
	systems["bus-3x40"] = bus
	for _, pin := range solvePins {
		sys := systems[pin.name]
		dc, err := dcPoint(sys, 0)
		if err != nil {
			t.Fatalf("%s: DC: %v", pin.name, err)
		}
		rom, err := mor.Reduce(sys, 8)
		if err != nil {
			t.Fatalf("%s: Reduce: %v", pin.name, err)
		}
		red := rom.Reduced
		for _, d := range []struct {
			what      string
			got, want uint64
		}{
			{"DC(0)", bitsDigest(dc), pin.dc},
			{"reduced G", bitsDigest(red.G.Data), pin.g},
			{"reduced C", bitsDigest(red.C.Data), pin.c},
			{"reduced B", bitsDigest(red.B.Data), pin.b},
			{"basis V", bitsDigest(rom.V.Data), pin.v},
		} {
			if d.got != d.want {
				t.Errorf("%s (%d states): %s digest %#016x, want %#016x", pin.name, sys.NumStates(), d.what, d.got, d.want)
			}
		}
	}
}

// dcPoint solves the DC operating point G x = B u(t0).
func dcPoint(sys *mna.System, t0 float64) ([]float64, error) {
	x := make([]float64, sys.NumStates())
	u := make([]float64, sys.NumInputs())
	inputsAt(sys, u, t0)
	if err := sys.DCCols(x, u, 1); err != nil {
		return nil, err
	}
	return x, nil
}

// inputsAt evaluates the input vector u(t) into dst.
func inputsAt(sys *mna.System, dst []float64, t float64) {
	for i, w := range sys.Inputs {
		dst[i] = w.At(t)
	}
}
