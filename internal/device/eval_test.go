package device

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// skipOffPortablePow skips bit-identity tests where math.Pow is not the
// portable algorithm sharedPow replays: s390x has an assembly Pow, and
// only amd64 and arm64 are verified.
func skipOffPortablePow(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "arm64" {
		t.Skipf("sharedPow is verified bit-identical to math.Pow on amd64 and arm64 only, not %s", runtime.GOARCH)
	}
}

// refIds is a verbatim copy of the body Ids had before the shared-log
// powers and the value-only path: four math.Pow calls and the
// derivatives always computed. It is the reference the fast evaluator
// must reproduce bit for bit.
func refIds(p *MOSParams, w, vgs, vds float64) (id, gm, gds float64) {
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
	vgst, dvgst := softplus(vgs-p.Vth, p.Vs)
	if vgst <= 0 {
		return sign * gminI, 0, p.Gmin * w
	}
	vga := math.Pow(vgst, p.Alpha)
	vdsat := p.Kv * math.Pow(vgst, 0.5*p.Alpha)
	u := vds / vdsat
	th := math.Tanh(p.Sat * u)
	sech2 := 1 - th*th

	idCore := p.K * w * vga * th
	id = sign * (idCore + gminI)

	// dId/dVds: core current via tanh(Sat*u), plus gmin.
	gds = p.K*w*vga*p.Sat*sech2/vdsat + p.Gmin*w

	// dId/dVgs: both Vgst^Alpha and Vdsat depend on vgs.
	// d(vga)/dvgs = Alpha * vgst^(Alpha-1) * dvgst
	// d(u)/dvgs   = -vds/vdsat^2 * dVdsat/dvgs,
	// dVdsat/dvgs = Kv * Alpha/2 * vgst^(Alpha/2-1) * dvgst
	dvga := p.Alpha * math.Pow(vgst, p.Alpha-1) * dvgst
	dvdsat := p.Kv * 0.5 * p.Alpha * math.Pow(vgst, 0.5*p.Alpha-1) * dvgst
	du := -vds / (vdsat * vdsat) * dvdsat
	gm = p.K * w * (dvga*th + vga*p.Sat*sech2*du)
	gm *= sign
	return id, gm, gds
}

// evalParamSets returns the parameter sets the bit-identity sweep
// covers: both polarities of the three corners, plus synthetic NMOS
// devices whose Alpha hits pow's special exponents (1: α/2 = 0.5 and
// α-1 = 0; 1.5: α/2-1 = -0.25 beside α-1 = 0.5; 2: integer exponents
// only) and whose narrow Vs and Vth = 0.5 make vgs = 1.5 land exactly on
// vgst == 1 through the z > 40 branch of softplus.
func evalParamSets() map[string]MOSParams {
	sets := map[string]MOSParams{}
	for _, tech := range []*Technology{Default180(), Fast180(), Slow180()} {
		sets[tech.Name+"/n"] = tech.N
		sets[tech.Name+"/p"] = tech.P
	}
	for _, alpha := range []float64{1, 1.3, 1.5, 2} {
		p := Default180().N
		p.Alpha, p.Vth, p.Vs = alpha, 0.5, 0.02
		sets[fmt.Sprintf("synthetic/alpha=%g", alpha)] = p
	}
	return sets
}

// TestEvalBitIdenticalToReference sweeps over a million random biases
// and asserts that Ids and the value-only Eval reproduce the reference
// body's outputs bit for bit. The sweep spans reverse vds, both
// saturated branches of softplus (z < -40 and z > 40), and vgst == 1,
// where math.Pow short-circuits; the test fails if any region goes
// unvisited.
func TestEvalBitIdenticalToReference(t *testing.T) {
	skipOffPortablePow(t)
	const perSet = 1 << 17
	const w = 2e-6
	for name, p := range evalParamSets() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name))*7919 + 1))
			var reverse, cutoff, linearSoftplus, unitVgst int
			for i := 0; i < perSet; i++ {
				vgs := -2.5 + 6*rng.Float64()
				vds := -1 + 3.5*rng.Float64()
				switch i % 16 {
				case 0:
					vgs = p.Vth + 1 // exactly vgst == 1 on the synthetic sets
				case 1:
					vds = 0
				}
				z := (vgs - p.Vth) / p.Vs
				switch {
				case vds < 0:
					reverse++
				case z < -40:
					cutoff++
				case z > 40:
					linearSoftplus++
				}
				if vg, _ := softplus(vgs-p.Vth, p.Vs); vg == 1 {
					unitVgst++
				}
				rid, rgm, rgds := refIds(&p, w, vgs, vds)
				id, gm, gds := p.Ids(w, vgs, vds)
				vid, vgm, vgds := p.Eval(w, vgs, vds, false)
				if !sameBits(id, rid) || !sameBits(gm, rgm) || !sameBits(gds, rgds) {
					t.Fatalf("Ids(%v, %v) = (%v, %v, %v), reference (%v, %v, %v)", vgs, vds, id, gm, gds, rid, rgm, rgds)
				}
				if !sameBits(vid, rid) {
					t.Fatalf("value-only Eval(%v, %v) id = %v, reference %v", vgs, vds, vid, rid)
				}
				if vgm != 0 || vgds != 0 {
					t.Fatalf("value-only Eval(%v, %v) returned derivatives (%v, %v)", vgs, vds, vgm, vgds)
				}
			}
			if reverse == 0 || cutoff == 0 || linearSoftplus == 0 {
				t.Fatalf("sweep missed a region: reverse %d, z<-40 %d, z>40 %d", reverse, cutoff, linearSoftplus)
			}
			if p.Vs < 0.025 && unitVgst == 0 {
				t.Fatal("sweep never hit vgst == 1")
			}
		})
	}
}

// TestSharedPowMatchesMathPow sweeps the pow replay directly: bases
// from subnormal to near overflow plus 1, 0, negative, Inf and NaN, and
// exponents random or special (0, ±0.5, 1, integers, ±Inf, NaN), several
// exponents per base as Eval uses it.
func TestSharedPowMatchesMathPow(t *testing.T) {
	skipOffPortablePow(t)
	rng := rand.New(rand.NewSource(42))
	special := []float64{0, math.Copysign(0, -1), 0.5, -0.5, 1, -1, 2, -2, 3, 0.25, 1.5, 64.5, 1 << 53, math.Inf(1), math.Inf(-1), math.NaN()}
	bases := []float64{1, 0, -2, 0.5, 2, math.SmallestNonzeroFloat64, 7 * math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	check := func(x float64, ys ...float64) {
		sp := newSharedPow(x)
		for _, y := range ys {
			if got, want := sp.pow(y), math.Pow(x, y); !sameBits(got, want) {
				t.Fatalf("sharedPow(%v).pow(%v) = %v, math.Pow = %v", x, y, got, want)
			}
		}
	}
	for _, x := range bases {
		check(x, special...)
		check(x, 6*(rng.Float64()-0.5), 6*(rng.Float64()-0.5))
	}
	for i := 0; i < 300000; i++ {
		var x float64
		switch i % 3 {
		case 0:
			x = math.Exp(-745 + 1454*rng.Float64()) // subnormal to near overflow
		case 1:
			x = 4 * rng.Float64()
		default:
			x = 1 + 1e-9*rng.NormFloat64()
		}
		check(x, 6*(rng.Float64()-0.5), 6*(rng.Float64()-0.5), 6*(rng.Float64()-0.5), special[rng.Intn(len(special))])
	}
}

// sameBits reports whether a and b are the same float64 bit pattern
// (NaNs compare equal only when their payloads do).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// BenchmarkMOSEval times one device evaluation at a strong-inversion
// bias, with derivatives (full) and without (value).
func BenchmarkMOSEval(b *testing.B) {
	p := Default180().N
	for _, mode := range []struct {
		name   string
		derivs bool
	}{{"full", true}, {"value", false}} {
		b.Run(mode.name, func(b *testing.B) {
			sink := 0.0
			for i := 0; i < b.N; i++ {
				id, gm, _ := p.Eval(2e-6, 1.2+1e-9*float64(i&63), 0.9, mode.derivs)
				sink += id + gm
			}
			if math.IsNaN(sink) {
				b.Fatal("NaN current")
			}
		})
	}
}
