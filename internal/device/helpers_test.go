package device

import (
	"fmt"
	"sort"

	"repro/internal/noiseerr"
)

// Test-only views of the model and the library: the tests check the
// device model through its full-derivative evaluation, the cells'
// topology through their internal nodes, and each technology corner
// through a whole-technology validation.

// Ids is Eval with derivatives.
func (p *MOSParams) Ids(w, vgs, vds float64) (id, gm, gds float64) {
	return p.Eval(w, vgs, vds, true)
}

// IsInverting reports whether the cell inverts its switching input.
func (c *Cell) IsInverting() bool { return !c.NonInverting }

// InternalNodes returns the sorted local node names that are neither pins
// nor rails.
func (c *Cell) InternalNodes() []string {
	set := map[string]bool{}
	for _, f := range c.FETs {
		for _, n := range []string{f.D, f.G, f.S} {
			switch n {
			case PinIn, PinOut, PinVdd, PinGnd:
			default:
				set[n] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Validate checks both polarities and the supply.
func (t *Technology) Validate() error {
	if t.Vdd <= 0 {
		return noiseerr.Invalidf("device: Vdd must be positive, got %g", t.Vdd)
	}
	if err := t.N.Validate(); err != nil {
		return fmt.Errorf("nmos: %w", err)
	}
	if err := t.P.Validate(); err != nil {
		return fmt.Errorf("pmos: %w", err)
	}
	return nil
}

// Validate checks the parameter set for physical plausibility.
func (p *MOSParams) Validate() error {
	switch {
	case p.Vth <= 0:
		return noiseerr.Invalidf("device: Vth must be positive, got %g", p.Vth)
	case p.Alpha < 1 || p.Alpha > 2:
		return noiseerr.Invalidf("device: Alpha %g outside [1, 2]", p.Alpha)
	case p.K <= 0:
		return noiseerr.Invalidf("device: K must be positive, got %g", p.K)
	case p.Kv <= 0:
		return noiseerr.Invalidf("device: Kv must be positive, got %g", p.Kv)
	case p.Vs <= 0:
		return noiseerr.Invalidf("device: Vs must be positive, got %g", p.Vs)
	case p.Sat <= 0:
		return noiseerr.Invalidf("device: Sat must be positive, got %g", p.Sat)
	}
	return nil
}
