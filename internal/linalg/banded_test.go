package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// ladderSPD builds a two-rail coupled RC-style conductance matrix with
// node numbering that puts the rails far apart (worst case for naive
// banding, easy for RCM).
func ladderSPD(n int) (*Sparse, *Matrix) {
	total := 2 * n
	d := NewMatrix(total, total)
	b := NewSparseBuilder(total)
	stamp := func(i, j int, g float64) {
		d.Add(i, i, g)
		d.Add(j, j, g)
		d.Add(i, j, -g)
		d.Add(j, i, -g)
		b.Add(i, i, g)
		b.Add(j, j, g)
		b.Add(i, j, -g)
		b.Add(j, i, -g)
	}
	for i := 0; i < n-1; i++ {
		stamp(i, i+1, 1)     // rail A chain
		stamp(n+i, n+i+1, 1) // rail B chain
	}
	for i := 0; i < n; i++ {
		stamp(i, n+i, 0.5) // rung coupling: bandwidth n when unpermuted
		d.Add(i, i, 0.1)
		b.Add(i, i, 0.1)
		d.Add(n+i, n+i, 0.1)
		b.Add(n+i, n+i, 0.1)
	}
	return b.Build(), d
}

// identityPerm is the natural ordering of n rows.
func identityPerm(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return perm
}

// solveWith solves A*x = b through a factor into a fresh vector.
func solveWith(f Solver, b []float64) []float64 {
	x := make([]float64, len(b))
	f.SolveTo(x, b)
	return x
}

func TestRCMShrinksBandwidth(t *testing.T) {
	s, _ := ladderSPD(50)
	before := s.bandwidth(identityPerm(s.N))
	perm := s.rcm()
	after := s.bandwidth(perm)
	if before < 40 {
		t.Fatalf("test premise broken: natural bandwidth %d too small", before)
	}
	if after > 6 {
		t.Fatalf("RCM bandwidth %d, want a small constant (was %d)", after, before)
	}
	// perm must be a permutation.
	seen := make([]bool, s.N)
	for _, v := range perm {
		if v < 0 || v >= s.N || seen[v] {
			t.Fatal("RCM output is not a permutation")
		}
		seen[v] = true
	}
}

func TestBandedCholMatchesLU(t *testing.T) {
	s, d := ladderSPD(30)
	f, err := factorBandedChol(s, s.rcm())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b := make([]float64, s.N)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want, err := solve(d, b)
	if err != nil {
		t.Fatal(err)
	}
	got := solveWith(f, b)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestBandedCholIdentityPermutation(t *testing.T) {
	s, d := randomSPDSparse(rand.New(rand.NewSource(2)), 12)
	f, err := factorBandedChol(s, identityPerm(s.N))
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 12)
	for i := range b {
		b[i] = float64(i) - 5
	}
	want, _ := solve(d, b)
	got := solveWith(f, b)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestBandedCholRejectsIndefinite(t *testing.T) {
	b := NewSparseBuilder(2)
	b.Add(0, 0, 1)
	b.Add(1, 1, -1)
	if _, err := factorBandedChol(b.Build(), identityPerm(2)); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

// TestCholeskySPD factors a fully dense SPD matrix, A = MᵀM + I, through
// the banded Cholesky (half-bandwidth n−1 under any ordering) and
// checks the residual of a solve.
func TestCholeskySPD(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 8
	m := NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	a := m.Transpose().Mul(m)
	for i := 0; i < n; i++ {
		a.Add(i, i, 1)
	}
	sp := FromDense(a)
	ch, err := factorBandedChol(sp, sp.rcm())
	if err != nil {
		t.Fatal(err)
	}
	if ch.bw != n-1 {
		t.Fatalf("half-bandwidth %d, want %d for a dense matrix", ch.bw, n-1)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	r := a.MulVec(solveWith(ch, b))
	for i := range r {
		if math.Abs(r[i]-b[i]) > 1e-9 {
			t.Fatalf("residual %v too large at %d", r[i]-b[i], i)
		}
	}
}

// TestCholeskyRejectsIndefinite checks that the Cholesky rejects a
// symmetric indefinite matrix whose diagonal is positive (eigenvalues 3
// and −1), and that Factor then takes the dense LU: a 32-state system
// made of such blocks is narrow-banded, so only the rejection sends it
// there, and its solve matches the LU's bit for bit.
func TestCholeskyRejectsIndefinite(t *testing.T) {
	if _, err := factorBandedChol(FromDense(NewMatrixFrom([][]float64{{1, 2}, {2, 1}})), identityPerm(2)); err == nil {
		t.Fatal("expected ErrSingular for an indefinite matrix")
	}
	n := bandedMin
	a := NewMatrix(n, n)
	b := make([]float64, n)
	for i := 0; i < n; i += 2 {
		a.Set(i, i, 1)
		a.Set(i, i+1, 2)
		a.Set(i+1, i, 2)
		a.Set(i+1, i+1, 1)
		b[i], b[i+1] = float64(i), 1
	}
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.(*CompactLU); !ok {
		t.Fatalf("indefinite system factored as %T, want the dense LU", f)
	}
	want, err := solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got := solveWith(f, b)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("x = %v, dense LU gives %v", got, want)
		}
	}
}

func TestBandedCholProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		s, d := randomSPDSparse(rng, n)
		fac, err := factorBandedChol(s, s.rcm())
		if err != nil {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := solveWith(fac, b)
		r := d.MulVec(x)
		for i := range r {
			if math.Abs(r[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
