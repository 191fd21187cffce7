package align_test

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/noiseerr"
	"repro/internal/waveform"
	"repro/internal/workload"
)

// TestSearchSims pins the receiver simulations the climb spends on
// three searches, each checked against the whole-grid search too: the
// first default workload net at grid 21 (BenchmarkExhaustiveWorst's
// search), which climbs; Fig 6's two pulses 150 ps apart at grid 17,
// which are not a single pulse, so the search takes the whole grid and
// the two refinement passes; and, at grid 21, a pulse that cannot delay
// the victim, whose flat top takes the whole grid too.
func TestSearchSims(t *testing.T) {
	lib := device.NewLibrary(device.Default180())
	c, err := workload.NewGenerator(lib, workload.DefaultProfile(), 20010618).Next(0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := delaynoise.Analyze(c, delaynoise.Options{Align: delaynoise.AlignReceiverInput})
	if err != nil {
		t.Fatal(err)
	}
	inv := lib.Cells["INVX2"]
	vdd := lib.Tech.Vdd
	ramp := waveform.Ramp(200e-12, 300e-12, 0, vdd)
	p := align.Pulse{Height: -0.40, Width: 60e-12}.Waveform()
	twoPulses, err := align.CompositeAt([]*waveform.PWL{p, p}, []float64{0, 150e-12})
	if err != nil {
		t.Fatal(err)
	}
	helping := align.Pulse{Height: 0.40, Width: 60e-12}.Waveform()
	for _, tc := range []struct {
		name             string
		o                align.Objective
		noiseless, noise *waveform.PWL
		grid, sims       int
	}{
		{"benchmark net", align.Objective{Receiver: c.Receiver, Load: c.ReceiverLoad, VictimRising: c.Victim.OutputRising}, r.NoiselessRecvIn, r.Composite, 21, 18},
		{"two pulses 150 ps apart", align.Objective{Receiver: inv, Load: 3e-15, VictimRising: true}, ramp, twoPulses, 17, 25},
		{"pulse that cannot delay", align.Objective{Receiver: inv, Load: 3e-15, VictimRising: true}, ramp, helping, 21, 29},
	} {
		var sims metrics.Counter
		tc.o.Sims = &sims
		got, err := tc.o.ExhaustiveWorst(tc.noiseless, tc.noise, tc.grid)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := int(sims.Value()); n != tc.sims {
			t.Errorf("%s: %d receiver simulations, want %d", tc.name, n, tc.sims)
		}
		tc.o.Sims = nil
		want, err := wholeGrid(tc.o, tc.noiseless, tc.noise, tc.grid, true)
		if err != nil {
			t.Fatalf("%s: whole grid: %v", tc.name, err)
		}
		if !sameResult(got, want) {
			t.Errorf("%s: climb %+v, whole grid %+v", tc.name, got, want)
		}
	}
}

// sameResult reports whether two search results carry the same bits.
func sameResult(a, b align.WorstResult) bool {
	return math.Float64bits(a.TPeak) == math.Float64bits(b.TPeak) &&
		math.Float64bits(a.TOut) == math.Float64bits(b.TOut) &&
		math.Float64bits(a.Va) == math.Float64bits(b.Va)
}

// wholeGrid is the search as it was before the climb, run serially:
// every grid point, folded in grid order, then the two refinement
// passes. It is the reference the climb must reproduce.
func wholeGrid(o align.Objective, noiseless, noise *waveform.PWL, nGrid int, latest bool) (align.WorstResult, error) {
	if nGrid < 5 {
		nGrid = 5
	}
	lo, hi, err := align.SearchWindow(noiseless, noise, o.Vdd(), o.VictimRising)
	if err != nil {
		return align.WorstResult{}, err
	}
	bestT, bestOut := lo, math.Inf(1)
	if latest {
		bestOut = math.Inf(-1)
	}
	var lastErr error
	// try evaluates the alignments tps and keeps, in order, each one
	// that beats the incumbent; only cancellation aborts the search,
	// since some alignments may never cross (pathological noise).
	try := func(tps []float64) error {
		outs := make([]float64, len(tps))
		errs := make([]error, len(tps))
		for i := range tps {
			outs[i], errs[i] = o.OutputCross(align.NoisyInput(noiseless, noise, tps[i]))
			if errors.Is(errs[i], noiseerr.ErrCanceled) {
				return errs[i]
			}
		}
		for i, tp := range tps {
			switch {
			case errs[i] != nil:
				lastErr = errs[i]
			case (latest && outs[i] > bestOut) || (!latest && outs[i] < bestOut):
				bestT, bestOut = tp, outs[i]
			}
		}
		return nil
	}
	step := (hi - lo) / float64(nGrid-1)
	grid := make([]float64, nGrid)
	for i := range grid {
		grid[i] = lo + float64(i)*step
	}
	if err := try(grid); err != nil {
		return align.WorstResult{}, err
	}
	if math.IsInf(bestOut, 0) {
		return align.WorstResult{}, noiseerr.Convergencef("align: no alignment produced an output crossing (last: %w)", lastErr)
	}
	// Two refinement passes around the incumbent.
	for pass := 0; pass < 2; pass++ {
		step /= 2.5
		if err := try([]float64{bestT - 2*step, bestT - step, bestT + step, bestT + 2*step}); err != nil {
			return align.WorstResult{}, err
		}
	}
	return align.WorstResult{TPeak: bestT, TOut: bestOut, Va: noiseless.At(bestT)}, nil
}

// climbLibs are the libraries FuzzClimb draws receivers from: the
// default technology and the ff and ss corners.
var climbLibs = []*device.Library{
	settleLib,
	device.NewLibrary(device.Fast180()),
	device.NewLibrary(device.Slow180()),
}

// climbCase is one fuzzed search: a receiver cell into load, whose
// input ramps at slew (rising or falling) from 200 ps, searched for its
// latest (or, with best, earliest) output crossing against a triangular
// pulse of signed peak height and half-height width, plus, when
// twoPulses, an equal pulse offset from it as in Fig 6's staggered
// composites, on a grid of nGrid points.
type climbCase struct {
	cell          *device.Cell
	corner        int
	rising, best  bool
	slew, load    float64
	height, width float64
	twoPulses     bool
	offset        float64
	nGrid         int
}

// decodeClimbCase maps fuzz values onto the ranges the flows reach and
// past them: any library cell on any corner (flags bits 4-5), slews of
// 20-800 ps, loads of 1-200 fF on a log scale, pulse heights up to
// 0.6·Vdd against the transition or (flags bit 1) with it, widths of
// 20-500 ps, grids of 5-31 points, the earliest crossing (flags bit 2)
// or the latest, and (flags bit 3) a second pulse offset by up to
// ±600 ps.
func decodeClimbCase(cellSel, flags, slew, load, height, width, grid, offset uint16) climbCase {
	frac := func(v uint16) float64 { return float64(v) / math.MaxUint16 }
	corner := int(flags>>4&3) % len(climbLibs)
	lib := climbLibs[corner]
	names := lib.Names()
	cc := climbCase{
		cell:      lib.Cells[names[int(cellSel)%len(names)]],
		corner:    corner,
		rising:    flags&1 != 0,
		best:      flags&4 != 0,
		slew:      20e-12 + 780e-12*frac(slew),
		load:      1e-15 * math.Pow(200, frac(load)),
		height:    0.6 * lib.Tech.Vdd * frac(height),
		width:     20e-12 + 480e-12*frac(width),
		twoPulses: flags&8 != 0,
		offset:    -600e-12 + 1200e-12*frac(offset),
		nGrid:     5 + int(grid)%27,
	}
	if cc.rising == (flags&2 == 0) {
		cc.height = -cc.height // against the transition
	}
	return cc
}

// inputs returns the case's noiseless receiver input and noise, or
// false when the noise has no excursion to search with.
func (cc climbCase) inputs() (noiseless, noise *waveform.PWL, ok bool) {
	vdd := cc.cell.Tech.Vdd
	noiseless = waveform.Ramp(200e-12, cc.slew, 0, vdd)
	if !cc.rising {
		noiseless = waveform.Ramp(200e-12, cc.slew, vdd, 0)
	}
	if cc.height == 0 {
		return nil, nil, false
	}
	noise = align.Pulse{Height: cc.height, Width: cc.width}.Waveform()
	if cc.twoPulses {
		var err error
		if noise, err = align.CompositeAt([]*waveform.PWL{noise, noise}, []float64{0, cc.offset}); err != nil {
			return nil, nil, false
		}
	}
	return noiseless, noise, true
}

// search runs the climb, counting its receiver simulations into sims
// when it is non-nil.
func (cc climbCase) search(sims *metrics.Counter) (align.WorstResult, error) {
	noiseless, noise, _ := cc.inputs()
	o := align.Objective{Receiver: cc.cell, Load: cc.load, VictimRising: cc.rising, Sims: sims}
	if cc.best {
		return o.ExhaustiveBest(noiseless, noise, cc.nGrid)
	}
	return o.ExhaustiveWorst(noiseless, noise, cc.nGrid)
}

// FuzzClimb holds ExhaustiveWorst and ExhaustiveBest, the climb, to
// wholeGrid, the search that evaluates every grid point: the same
// TPeak, TOut and Va bits, or the same error.
func FuzzClimb(f *testing.F) {
	f.Fuzz(func(t *testing.T, cellSel, flags, slew, load, height, width, grid, offset uint16) {
		cc := decodeClimbCase(cellSel, flags, slew, load, height, width, grid, offset)
		noiseless, noise, ok := cc.inputs()
		if !ok {
			return
		}
		got, gotErr := cc.search(nil)
		o := align.Objective{Receiver: cc.cell, Load: cc.load, VictimRising: cc.rising}
		want, wantErr := wholeGrid(o, noiseless, noise, cc.nGrid, !cc.best)
		if (gotErr != nil) != (wantErr != nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s %+v: climb error %v, whole grid %v", cc.cell.Name, cc, gotErr, wantErr)
		}
		if gotErr == nil && !sameResult(got, want) {
			t.Fatalf("%s %+v: climb %+v, whole grid %+v", cc.cell.Name, cc, got, want)
		}
	})
}

// TestClimbCorpusCoversRegimes holds FuzzClimb's committed seed corpus
// to the cases each rule of the climb is for: a search that climbs
// (fewer simulations than the whole grid and the two passes), two
// pulses that take the whole grid, a single pulse whose flat top takes
// it, the earliest crossing, an ff or ss corner, and a pulse above
// 0.35·Vdd, where a pulse landing after the transition can glitch the
// output.
func TestClimbCorpusCoversRegimes(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzClimb", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed corpus for FuzzClimb (err %v)", err)
	}
	var climbed, twoPulses, flatTop, best, corner, tall int
	for _, file := range files {
		v := readClimbCorpus(t, file)
		cc := decodeClimbCase(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7])
		if _, _, ok := cc.inputs(); !ok {
			t.Fatalf("%s: no pulse to search with", file)
		}
		var sims metrics.Counter
		if _, err := cc.search(&sims); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		whole := int(sims.Value()) == cc.nGrid+8
		switch {
		case !whole:
			climbed++
		case cc.twoPulses:
			twoPulses++
		default:
			flatTop++
		}
		if cc.best {
			best++
		}
		if cc.corner != 0 {
			corner++
		}
		if math.Abs(cc.height) > 0.35*cc.cell.Tech.Vdd {
			tall++
		}
	}
	if climbed == 0 || twoPulses == 0 || flatTop == 0 || best == 0 || corner == 0 || tall == 0 {
		t.Fatalf("corpus misses a regime: climbed %d, two pulses %d, flat top %d, earliest crossing %d, ff/ss corner %d, tall pulse %d",
			climbed, twoPulses, flatTop, best, corner, tall)
	}
}

// readClimbCorpus parses one FuzzClimb corpus file in the format the go
// command writes: a version line and eight uint16(…) lines.
func readClimbCorpus(t *testing.T, file string) [8]uint16 {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 9 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: want a version line and eight values, got %q", file, lines)
	}
	var v [8]uint16
	for i := range v {
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(lines[1+i], "uint16("), ")"), 10, 16)
		if err != nil {
			t.Fatalf("%s: %q is not a uint16 value: %v", file, lines[1+i], err)
		}
		v[i] = uint16(n)
	}
	return v
}
