package linalg

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Shapes of the systems FuzzFactor draws.
const (
	shapeBand       = iota // symmetric, diagonally dominant band: the banded side
	shapeWide              // the band plus long-range couplings: too wide to band
	shapeIndefinite        // the band with one negative diagonal: the Cholesky rejects it
	shapeSmall             // a band below bandedMin states: the dense side by size
	numShapes
)

// factorCase decodes one fuzz input into a system and a right-hand
// side. Every shape is an RC-like conductance stamp: a chain along the
// band, further couplings inside a half-bandwidth of 1-7 rows (some
// left out, so the band holds exact zeros), and a conductance to
// ground on every row. The rows and columns are then scrambled by one
// random permutation, so only an RCM ordering recovers the band. The
// right-hand side is finite with exact +0 entries and no -0, like every
// right-hand side the linear engines build.
func factorCase(seed uint64, size, band, shape uint8) (*Matrix, []float64) {
	rng := rand.New(rand.NewSource(int64(seed)))
	kind := int(shape) % numShapes
	n := bandedMin + int(size)%(201-bandedMin)
	if kind == shapeSmall {
		n = 1 + int(size)%(bandedMin-1)
	}
	bw := 1 + int(band)%7
	a := NewMatrix(n, n)
	couple := func(i, j int) {
		g := 0.1 + rng.Float64()
		a.Add(i, i, g)
		a.Add(j, j, g)
		a.Add(i, j, -g)
		a.Add(j, i, -g)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j <= min(i+bw, n-1); j++ {
			if j == i+1 || rng.Intn(2) == 0 {
				couple(i, j)
			}
		}
		a.Add(i, i, 0.05+rng.Float64())
	}
	switch kind {
	case shapeWide:
		for k := 0; k < n; k++ {
			if i, j := rng.Intn(n), rng.Intn(n); i != j {
				couple(i, j)
			}
		}
	case shapeIndefinite:
		r := rng.Intn(n)
		a.Set(r, r, -a.At(r, r))
	}
	perm := rng.Perm(n)
	s := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s.Set(i, j, a.At(perm[i], perm[j]))
		}
	}
	b := make([]float64, n)
	for i := range b {
		if rng.Intn(4) > 0 {
			b[i] = rng.NormFloat64() * math.Exp2(float64(rng.Intn(20)-10))
		}
	}
	return s, b
}

// factorSide names the branch of Factor's rule a matrix takes:
// "small" and "wide" and "rejected" are the dense LU, "banded" the
// banded Cholesky.
func factorSide(a *Matrix) string {
	n := a.Rows
	if n < bandedMin {
		return "small"
	}
	sp := FromDense(a)
	perm := sp.rcm()
	if 4*(sp.bandwidth(perm)+1) > n {
		return "wide"
	}
	if _, err := factorBandedChol(sp, perm); err != nil {
		return "rejected"
	}
	return "banded"
}

// bandedTol bounds the banded Cholesky's departure from the pivoted LU,
// relative to the solution's largest entry. Both are backward-stable
// direct solves of diagonally dominant systems, so they differ only in
// rounding: over 300 banded draws they differ by at most 2.3e-15, far
// inside this bound.
const bandedTol = 1e-9

// FuzzFactor checks Factor against the dense LU. A banded result must
// match FactorLU + LU.SolveTo within bandedTol; every input that takes
// the dense side must match LU.SolveTo bit for bit. Systems whose
// reference solve is not finite are skipped.
func FuzzFactor(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, size, band, shape uint8) {
		a, b := factorCase(seed, size, band, shape)
		n := a.Rows
		lu, err := FactorLU(a)
		if err != nil {
			return
		}
		want := make([]float64, n)
		lu.SolveTo(want, b)
		if !allFinite(want) {
			return
		}
		fac, err := Factor(a)
		if err != nil {
			t.Fatalf("n=%d: Factor fails where FactorLU succeeds: %v", n, err)
		}
		got := make([]float64, n)
		fac.SolveTo(got, b)
		switch fac := fac.(type) {
		case *BandedChol:
			if n < bandedMin || 4*(fac.bw+1) > n {
				t.Fatalf("n=%d: banded factor of half-bandwidth %d breaks the rule", n, fac.bw)
			}
			scale := NormInf(want)
			for i := range got {
				if d := math.Abs(got[i] - want[i]); !(d <= bandedTol*scale) {
					t.Fatalf("n=%d bw=%d: x[%d] = %v, dense LU gives %v (|Δ|/‖x‖∞ = %.3g)", n, fac.bw, i, got[i], want[i], d/scale)
				}
			}
		case *CompactLU:
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d: x[%d] = %v, dense LU gives %v", n, i, got[i], want[i])
				}
			}
		default:
			t.Fatalf("Factor returned a %T", fac)
		}
	})
}

// TestFactorCorpusCoversRules pins the committed seed corpus to every
// branch of Factor's rule: the banded Cholesky, and the dense LU by
// size, by a band too wide, and by a Cholesky that rejects the matrix.
func TestFactorCorpusCoversRules(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzFactor", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed corpus for FuzzFactor (err %v)", err)
	}
	sides := map[string]int{}
	for _, file := range files {
		seed, size, band, shape := readFactorCorpus(t, file)
		a, _ := factorCase(seed, size, band, shape)
		sides[factorSide(a)]++
	}
	for _, side := range []string{"banded", "small", "wide", "rejected"} {
		if sides[side] == 0 {
			t.Fatalf("corpus misses the %s side: %v", side, sides)
		}
	}
}

// readFactorCorpus parses one FuzzFactor corpus file in the format the
// go command writes: a version line, a uint64(…) line and three
// byte('…') lines.
func readFactorCorpus(t *testing.T, file string) (uint64, uint8, uint8, uint8) {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 5 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: want a version line and four values, got %q", file, lines)
	}
	seed, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(lines[1], "uint64("), ")"), 10, 64)
	if err != nil {
		t.Fatalf("%s: %q is not a uint64 value: %v", file, lines[1], err)
	}
	var bytes [3]uint8
	for i, line := range lines[2:] {
		lit := strings.TrimSuffix(strings.TrimPrefix(line, "byte('"), "')")
		code, _, rest, err := strconv.UnquoteChar(lit, '\'')
		if err != nil || rest != "" || code >= 256 {
			t.Fatalf("%s: %q is not a byte value (%v)", file, line, err)
		}
		bytes[i] = uint8(code)
	}
	return seed, bytes[0], bytes[1], bytes[2]
}
