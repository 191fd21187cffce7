package waveform

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refAt is At as it was before AtHint: a binary search per lookup. The
// hinted lookup must return its bits exactly.
func refAt(w *PWL, t float64) float64 {
	n := len(w.T)
	if n == 0 {
		return 0
	}
	if t <= w.T[0] {
		return w.V[0]
	}
	if t >= w.T[n-1] {
		return w.V[n-1]
	}
	i := sort.SearchFloat64s(w.T, t)
	if w.T[i] == t {
		return w.V[i]
	}
	t0, t1 := w.T[i-1], w.T[i]
	v0, v1 := w.V[i-1], w.V[i]
	return v0 + (v1-v0)*(t-t0)/(t1-t0)
}

// refMergeTimes is the sort-based breakpoint union mergeTimes replaced.
func refMergeTimes(ws []*PWL) []float64 {
	var all []float64
	for _, w := range ws {
		all = append(all, w.T...)
	}
	sort.Float64s(all)
	out := all[:0]
	for i, t := range all {
		if i == 0 || t-out[len(out)-1] > timeResolution {
			out = append(out, t)
		}
	}
	return out
}

// refSum is Sum over refMergeTimes and refAt.
func refSum(ws ...*PWL) *PWL {
	var ws2 []*PWL
	for _, w := range ws {
		if w != nil && w.Len() > 0 {
			ws2 = append(ws2, w)
		}
	}
	if len(ws2) == 0 {
		return Constant(0)
	}
	t := refMergeTimes(ws2)
	v := make([]float64, len(t))
	for i, ti := range t {
		s := 0.0
		for _, w := range ws2 {
			s += refAt(w, ti)
		}
		v[i] = s
	}
	return New(t, v)
}

// randomWaveforms draws k waveforms whose breakpoints come partly from
// a shared pool — so different inputs share exact breakpoints and hold
// breakpoints closer together than timeResolution — and partly from
// their own jitter. Some are single-point or constant-valued.
func randomWaveforms(rng *rand.Rand, k int) []*PWL {
	var pool []float64
	t := -1e-9 + 2e-9*rng.Float64()
	for len(pool) < 24 {
		switch rng.Intn(4) {
		case 0:
			t += (1 + 4*rng.Float64()) * 1e-19 // below timeResolution
		case 1:
			t += (1 + rng.Float64()) * timeResolution // just above it
		default:
			t += 1e-12 + 1e-10*rng.Float64()
		}
		pool = append(pool, t)
	}
	ws := make([]*PWL, k)
	for j := range ws {
		set := map[float64]bool{}
		for _, p := range pool {
			if rng.Intn(3) == 0 {
				set[p] = true
			}
		}
		for n := rng.Intn(4); n > 0; n-- {
			set[pool[0]+(pool[len(pool)-1]-pool[0])*rng.Float64()] = true
		}
		if len(set) == 0 || rng.Intn(8) == 0 {
			set = map[float64]bool{pool[rng.Intn(len(pool))]: true} // single point
		}
		ts := make([]float64, 0, len(set))
		for p := range set {
			ts = append(ts, p)
		}
		sort.Float64s(ts)
		vs := make([]float64, len(ts))
		constant := rng.Intn(6) == 0
		for i := range vs {
			vs[i] = 2 * (rng.Float64() - 0.5)
			if constant && i > 0 {
				vs[i] = vs[0]
			}
		}
		ws[j] = New(ts, vs)
	}
	return ws
}

// TestAtHintMatchesAt queries random waveforms along mostly ascending
// sequences — exact breakpoints, points between them, out-of-range
// times on both sides, occasional backward jumps, and stale or garbage
// hints — and requires AtHint's bits to equal the binary-search At's.
func TestAtHintMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		w := randomWaveforms(rng, 1)[0]
		lo, hi := w.Start()-5e-11, w.End()+5e-11
		hint := 0
		switch trial % 5 {
		case 1:
			hint = -3
		case 2:
			hint = len(w.T) + 7
		}
		q := lo
		for step := 0; step < 200; step++ {
			switch r := rng.Intn(10); {
			case r == 0:
				q = lo + (hi-lo)*rng.Float64() // jump anywhere, backward too
			case r <= 2:
				q = w.T[rng.Intn(len(w.T))] // exact breakpoint
			default:
				q += (hi - lo) * rng.Float64() / 40
			}
			if got, want := w.AtHint(q, &hint), refAt(w, q); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: AtHint(%v) = %v, At = %v (T=%v)", trial, q, got, want, w.T)
			}
			if got, want := w.At(q), refAt(w, q); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: At(%v) = %v, reference %v", trial, q, got, want)
			}
		}
	}
}

// TestSumMatchesSortedReference compares the k-way-merge Sum against
// the sort-based one bit for bit, breakpoints and values, over inputs
// with shared, equal and sub-resolution breakpoints.
func TestSumMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Breakpoints exactly timeResolution apart sit on the collapse
	// rule's boundary (they are kept only when strictly farther apart).
	edge := [][]*PWL{
		{New([]float64{0, timeResolution, 1e-9}, []float64{0, 1, 2})},
		{New([]float64{0, 1e-9}, []float64{1, 0}), New([]float64{timeResolution, 2e-9}, []float64{0.5, -1})},
	}
	for trial := 0; trial < 3000+len(edge); trial++ {
		var ws []*PWL
		if trial < len(edge) {
			ws = edge[trial]
		} else {
			ws = randomWaveforms(rng, 1+rng.Intn(5))
		}
		if trial%7 == 0 {
			ws = append(ws, nil, Constant(0.25), &PWL{})
		}
		got, want := Sum(ws...), refSum(ws...)
		if len(got.T) != len(want.T) {
			t.Fatalf("trial %d: %d breakpoints, reference %d", trial, len(got.T), len(want.T))
		}
		for i := range got.T {
			if math.Float64bits(got.T[i]) != math.Float64bits(want.T[i]) ||
				math.Float64bits(got.V[i]) != math.Float64bits(want.V[i]) {
				t.Fatalf("trial %d: point %d = (%v, %v), reference (%v, %v)", trial, i, got.T[i], got.V[i], want.T[i], want.V[i])
			}
		}
	}
}
