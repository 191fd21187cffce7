package linalg

import (
	"fmt"
	"math"
	"sort"
)

// rcm computes a reverse Cuthill-McKee ordering of the matrix's symmetric
// sparsity pattern. RC interconnect matrices are chains and shallow trees
// with neighbor coupling; after RCM the bandwidth collapses to a small
// constant, which makes banded Cholesky an O(n) direct solver.
//
// The returned slice maps new index -> old index.
func (s *Sparse) rcm() []int {
	n := s.N
	// Build symmetric adjacency (pattern of A + A^T, excluding diagonal).
	adj := make([][]int, n)
	for r := 0; r < n; r++ {
		for i := s.rowPtr[r]; i < s.rowPtr[r+1]; i++ {
			c := s.colIdx[i]
			if c == r {
				continue
			}
			adj[r] = append(adj[r], c)
			adj[c] = append(adj[c], r)
		}
	}
	deg := make([]int, n)
	for v := range adj {
		sort.Ints(adj[v])
		// Dedup.
		out := adj[v][:0]
		for i, w := range adj[v] {
			if i == 0 || w != out[len(out)-1] {
				out = append(out, w)
			}
		}
		adj[v] = out
		deg[v] = len(out)
	}
	visited := make([]bool, n)
	order := make([]int, 0, n)
	for len(order) < n {
		// Start each component from a minimum-degree unvisited vertex (a
		// pseudo-peripheral heuristic good enough for RC topologies).
		start := -1
		for v := 0; v < n; v++ {
			if !visited[v] && (start == -1 || deg[v] < deg[start]) {
				start = v
			}
		}
		queue := []int{start}
		visited[start] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			neigh := make([]int, 0, len(adj[v]))
			for _, w := range adj[v] {
				if !visited[w] {
					visited[w] = true
					neigh = append(neigh, w)
				}
			}
			sort.Slice(neigh, func(i, j int) bool { return deg[neigh[i]] < deg[neigh[j]] })
			queue = append(queue, neigh...)
		}
	}
	// Reverse.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// bandwidth returns the half-bandwidth of the matrix under the given
// ordering (perm maps new -> old).
func (s *Sparse) bandwidth(perm []int) int {
	inv := invertPerm(perm)
	bw := 0
	for r := 0; r < s.N; r++ {
		for i := s.rowPtr[r]; i < s.rowPtr[r+1]; i++ {
			d := inv[r] - inv[s.colIdx[i]]
			if d < 0 {
				d = -d
			}
			if d > bw {
				bw = d
			}
		}
	}
	return bw
}

func invertPerm(perm []int) []int {
	inv := make([]int, len(perm))
	for newIdx, oldIdx := range perm {
		inv[oldIdx] = newIdx
	}
	return inv
}

// BandedChol is a banded Cholesky factorization of a symmetric positive-
// definite matrix under a bandwidth-reducing permutation. It owns the
// scratch vector of its solves, so one factor must not solve on two
// goroutines at once.
type BandedChol struct {
	n, bw int
	perm  []int // new -> old
	// band[i*(bw+1)+k] = L[i][i-bw+k] for k in [0, bw], i.e. the lower
	// band stored row-wise with the diagonal at k = bw.
	band []float64
	y    []float64 // solve scratch: the permuted intermediate
}

// factorBandedChol permutes the matrix with perm (new -> old, as s.rcm()
// returns it) and computes the banded Cholesky factor. It returns
// ErrSingular when the matrix is not positive definite.
func factorBandedChol(s *Sparse, perm []int) (*BandedChol, error) {
	n := s.N
	inv := invertPerm(perm)
	bw := s.bandwidth(perm)
	f := &BandedChol{n: n, bw: bw, perm: perm, band: make([]float64, n*(bw+1)), y: make([]float64, n)}
	at := func(i, k int) float64 { return f.band[i*(bw+1)+k] }
	set := func(i, k int, v float64) { f.band[i*(bw+1)+k] = v }
	// Load the permuted matrix into the band.
	for r := 0; r < n; r++ {
		pr := inv[r]
		for i := s.rowPtr[r]; i < s.rowPtr[r+1]; i++ {
			pc := inv[s.colIdx[i]]
			if pc > pr {
				continue // lower triangle only (matrix symmetric)
			}
			k := bw - (pr - pc)
			f.band[pr*(bw+1)+k] += s.values[i]
		}
	}
	// In-band Cholesky.
	for i := 0; i < n; i++ {
		lo := i - bw
		if lo < 0 {
			lo = 0
		}
		for j := lo; j <= i; j++ {
			sum := at(i, bw-(i-j))
			kLo := j - bw
			if kLo < i-bw {
				kLo = i - bw
			}
			if kLo < 0 {
				kLo = 0
			}
			for k := kLo; k < j; k++ {
				sum -= at(i, bw-(i-k)) * at(j, bw-(j-k))
			}
			if i == j {
				if sum <= 0 {
					return nil, ErrSingular
				}
				set(i, bw, math.Sqrt(sum))
			} else {
				set(i, bw-(i-j), sum/at(j, bw))
			}
		}
	}
	return f, nil
}

// SolveTo solves A*x = b (in the original ordering) into dst without
// allocating, through the factor's own scratch. dst may alias b.
//
//lint:hot
func (f *BandedChol) SolveTo(dst, b []float64) {
	n, bw := f.n, f.bw
	if len(b) != n || len(dst) != n {
		panic(fmt.Sprintf("linalg: banded solve lengths dst=%d b=%d, want %d", len(dst), len(b), n))
	}
	y := f.y
	for i := 0; i < n; i++ {
		y[i] = b[f.perm[i]]
	}
	at := func(i, k int) float64 { return f.band[i*(bw+1)+k] }
	// Forward: L y' = y.
	for i := 0; i < n; i++ {
		s := y[i]
		lo := i - bw
		if lo < 0 {
			lo = 0
		}
		for k := lo; k < i; k++ {
			s -= at(i, bw-(i-k)) * y[k]
		}
		y[i] = s / at(i, bw)
	}
	// Backward: L^T x' = y'.
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		hi := i + bw
		if hi > n-1 {
			hi = n - 1
		}
		for k := i + 1; k <= hi; k++ {
			s -= at(k, bw-(k-i)) * y[k]
		}
		y[i] = s / at(i, bw)
	}
	for i := 0; i < n; i++ {
		dst[f.perm[i]] = y[i]
	}
}
