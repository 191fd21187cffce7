// Package mor implements PRIMA (paper ref [2], Odabasioglu-Celik-Pileggi):
// passive reduced-order interconnect macromodeling by block-Arnoldi
// Krylov projection. The coupled RC network is reduced once and the
// reduced model is reused across all driver simulations of the
// superposition flow, which is the efficiency argument of the paper's
// Section 1.
package mor

import (
	"context"
	"fmt"

	"repro/internal/linalg"
	"repro/internal/lsim"
	"repro/internal/mna"
	"repro/internal/noiseerr"
	"repro/internal/waveform"
)

// ROM is a reduced-order model of an MNA system together with the
// projection basis needed to recover node voltages.
type ROM struct {
	Reduced *mna.System
	V       *linalg.Matrix // n x q projection basis, x ~ V z
	full    *mna.System
	Order   int
}

// Reduce computes a PRIMA reduced-order model of order q (number of
// retained states). q is rounded up to a whole number of block moments;
// if q >= n the identity projection is used (no reduction).
//
// Requirements: G must be nonsingular (every node needs a resistive path
// to ground — holding resistances provide this in the noise flow).
func Reduce(sys *mna.System, q int) (*ROM, error) {
	return ReduceContext(context.Background(), sys, q)
}

// ReduceContext is Reduce with cancellation support, checked once per
// block-Krylov iteration (each iteration is one solve per input column,
// the expensive unit of work here).
func ReduceContext(ctx context.Context, sys *mna.System, q int) (*ROM, error) {
	n := sys.NumStates()
	p := sys.NumInputs()
	if p == 0 {
		return nil, noiseerr.Invalidf("mor: system has no inputs")
	}
	if q <= 0 {
		return nil, noiseerr.Invalidf("mor: order must be positive, got %d", q)
	}
	if q >= n {
		// Identity projection: the "reduction" is the original system.
		return &ROM{Reduced: sys, V: linalg.Identity(n), full: sys, Order: n}, nil
	}
	f, err := linalg.Factor(sys.G)
	if err != nil {
		return nil, noiseerr.Numericalf("mor: G singular (floating node?): %w", err)
	}
	// Block Krylov: X_0 = G^-1 B; X_{k+1} = G^-1 C X_k, one column of
	// the basis per solve.
	blocks := (q + p - 1) / p
	basis := linalg.NewMatrix(n, blocks*p)
	x := make([]float64, n)
	for c := 0; c < blocks*p; c++ {
		if c%p == 0 && ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, noiseerr.Canceled(fmt.Errorf("mor: canceled at block %d of %d: %w", c/p, blocks, err))
			}
		}
		var rhs []float64
		if c < p {
			rhs = sys.B.Col(c)
		} else {
			rhs = sys.C.MulVec(basis.Col(c - p))
		}
		f.SolveTo(x, rhs)
		basis.SetCol(c, x)
	}
	kept := linalg.OrthonormalizeMGS(basis, 1e-10)
	if kept == 0 {
		return nil, noiseerr.Numericalf("mor: empty Krylov basis")
	}
	if kept > q {
		kept = q
	}
	v := linalg.SubColumns(basis, kept)
	vt := v.Transpose()
	gr := vt.Mul(sys.G.Mul(v))
	cr := vt.Mul(sys.C.Mul(v))
	br := vt.Mul(sys.B)
	red, err := mna.NewSystem(gr, cr, br, sys.Inputs, nil)
	if err != nil {
		return nil, err
	}
	return &ROM{Reduced: red, V: v, full: sys, Order: kept}, nil
}

// RunGroup integrates the reduced model once for each input set, as
// lsim.RunGroup does: sets[j] drives the model's input columns, which
// are the full system's. It returns one result per set, from which node
// voltages of the original network can be recovered.
func (r *ROM) RunGroup(ctx context.Context, sets [][]*waveform.PWL, opt lsim.Options) ([]*Result, error) {
	res, err := lsim.RunGroupContext(ctx, r.Reduced, sets, nil, opt)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(res))
	for j := range res {
		out[j] = &Result{rom: r, res: res[j]}
	}
	return out, nil
}

// Result wraps a reduced-space simulation.
type Result struct {
	rom *ROM
	res *lsim.Result
}

// Voltage recovers the waveform at an original network node by projecting
// the reduced states through the basis.
func (rr *Result) Voltage(node string) (*waveform.PWL, error) {
	i, err := rr.rom.full.NodeIndex(node)
	if err != nil {
		return nil, err
	}
	q := rr.rom.Order
	times := rr.res.Times
	v := make([]float64, len(times))
	row := make([]float64, q)
	for c := 0; c < q; c++ {
		row[c] = rr.rom.V.At(i, c)
	}
	for k := range times {
		s := 0.0
		for c := 0; c < q; c++ {
			s += row[c] * rr.res.States.At(k, c)
		}
		v[k] = s
	}
	return waveform.New(append([]float64(nil), times...), v), nil
}
