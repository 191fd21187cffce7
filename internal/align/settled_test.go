package align_test

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/align"
	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/gatesim"
	"repro/internal/metrics"
	"repro/internal/noiseerr"
	"repro/internal/waveform"
	"repro/internal/workload"
)

// The settled-tail pins: OutputCross and the exhaustive searches stop
// their receiver runs at a certified settled tail, and must give what
// the full runs give, bit for bit, errors included.

// searchInput is one receiver search input: a noiseless receiver input
// and the composite noise pulse swept across it.
type searchInput struct {
	name             string
	noiseless, noise *waveform.PWL
	rising           bool
}

var (
	searchOnce  sync.Once
	searchCache []searchInput
	searchErr   error
	settleLib   = device.NewLibrary(device.Default180())
	settleVdd   = settleLib.Tech.Vdd
)

// netSearchInputs returns the search inputs of the first net of the
// default, bus and long-route profiles (from a receiver-input-aligned
// analysis), each also mirrored about Vdd/2 so every receiver sees both
// victim directions.
func netSearchInputs(t *testing.T) []searchInput {
	t.Helper()
	searchOnce.Do(func() {
		for _, p := range []struct {
			name    string
			profile workload.Profile
		}{
			{"default", workload.DefaultProfile()},
			{"bus", workload.BusProfile()},
			{"longroute", workload.LongRouteProfile()},
		} {
			c, err := workload.NewGenerator(settleLib, p.profile, 20010618).Next(0)
			if err != nil {
				searchErr = err
				return
			}
			r, err := delaynoise.Analyze(c, delaynoise.Options{Hold: delaynoise.HoldThevenin, Align: delaynoise.AlignReceiverInput})
			if err != nil {
				searchErr = fmt.Errorf("%s net: %w", p.name, err)
				return
			}
			rising := c.Victim.OutputRising
			searchCache = append(searchCache,
				searchInput{p.name, r.NoiselessRecvIn, r.Composite, rising},
				searchInput{p.name + "-mirrored", r.NoiselessRecvIn.Scale(-1).Offset(settleVdd), r.Composite.Scale(-1), !rising})
		}
	})
	if searchErr != nil {
		t.Fatal(searchErr)
	}
	return searchCache
}

// settleCells returns the receivers under test: every library cell, or
// two (an inverter and BUFX4, whose internal node drives a gate) under
// -short.
func settleCells(t *testing.T) []*device.Cell {
	t.Helper()
	names := settleLib.Names()
	if testing.Short() {
		names = []string{"INVX1", "BUFX4"}
	}
	cells := make([]*device.Cell, len(names))
	for i, n := range names {
		cells[i] = settleLib.Cells[n]
	}
	return cells
}

// fullCross is the reference OutputCross: the full receiver run, then
// Cross.
func fullCross(o align.Objective, in *waveform.PWL) (float64, error) {
	out, err := gatesim.Receive(o.Receiver, in, o.Load, gatesim.Options{Ctx: o.Ctx})
	if err != nil {
		return 0, err
	}
	return o.Cross(out)
}

// sameOutcome reports whether two (value, error) results agree: both
// errors, or neither with equal bits.
func sameOutcome(a float64, aErr error, b float64, bErr error) bool {
	if (aErr != nil) != (bErr != nil) {
		return false
	}
	return aErr != nil || math.Float64bits(a) == math.Float64bits(b)
}

// checkCrossings compares OutputCross with the full run at the quiet
// input and at n pulse positions spanning the search window, its late
// edge (the pulse landing after the transition) included.
func checkCrossings(t *testing.T, o align.Objective, in searchInput, n int) {
	t.Helper()
	lo, hi, err := align.SearchWindow(in.noiseless, in.noise, settleVdd, in.rising)
	if err != nil {
		t.Error(err)
		return
	}
	inputs := []*waveform.PWL{in.noiseless}
	for i := 0; i < n; i++ {
		inputs = append(inputs, align.NoisyInput(in.noiseless, in.noise, lo+(hi-lo)*float64(i)/float64(n-1)))
	}
	for i, w := range inputs {
		got, gotErr := o.OutputCross(w)
		want, wantErr := fullCross(o, w)
		if !sameOutcome(got, gotErr, want, wantErr) {
			t.Errorf("%s %s input %d: OutputCross (%v, %v), full run (%v, %v)",
				o.Receiver.Name, in.name, i, got, gotErr, want, wantErr)
		}
	}
}

// TestOutputCrossMatchesFullRun pins OutputCross to the full Receive
// plus Cross for every library cell as the receiver, in both
// directions, on the search inputs of default, bus and long-route nets.
func TestOutputCrossMatchesFullRun(t *testing.T) {
	inputs := netSearchInputs(t)
	var settled metrics.Counter
	var wg sync.WaitGroup
	for _, cell := range settleCells(t) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, in := range inputs {
				o := align.Objective{Receiver: cell, Load: 10e-15, VictimRising: in.rising, Settled: &settled}
				checkCrossings(t, o, in, 4)
			}
		}()
	}
	wg.Wait()
	if settled.Value() == 0 {
		t.Error("no search run was stopped at a settled tail")
	}
}

// TestOutputCrossMatchesFullRunAtCorners covers the inputs of
// Precharacterize's corner searches at the minimum load, with pulse
// heights up to 0.6·Vdd: the glitch regime, where a pulse landing after
// the transition carries the output back across Vdd/2 and the delay is
// set by a re-crossing.
func TestOutputCrossMatchesFullRunAtCorners(t *testing.T) {
	cfg := align.DefaultConfig(settleLib.Tech)
	var wg sync.WaitGroup
	for _, cell := range settleCells(t) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, rising := range []bool{true, false} {
				o := align.Objective{Receiver: cell, Load: cfg.MinLoad, VictimRising: rising}
				for _, slew := range []float64{cfg.SlewMin, cfg.SlewMax} {
					for _, h := range []float64{cfg.HeightMax, 0.6 * settleVdd} {
						noiseless := cornerTransition(slew, rising)
						height := h
						if rising {
							height = -h
						}
						pulse := align.Pulse{Height: height, Width: cfg.WidthMax}.Waveform()
						in := searchInput{fmt.Sprintf("corner s=%g h=%g rising=%v", slew, h, rising), noiseless, pulse, rising}
						checkCrossings(t, o, in, 3)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// cornerTransition is Precharacterize's reference victim transition.
func cornerTransition(slew float64, rising bool) *waveform.PWL {
	if rising {
		return waveform.Ramp(200e-12, slew, 0, settleVdd)
	}
	return waveform.Ramp(200e-12, slew, settleVdd, 0)
}

// TestExhaustiveMatchesFullLoop pins ExhaustiveWorst and ExhaustiveBest
// to copies of the searches as they were before the settled stop and
// the shared sweep (context checks left out), run over full receiver
// simulations: every library cell runs one search in each victim
// direction, worst in one and best in the other (alternating by cell),
// on the net inputs in turn, plus a 0.6·Vdd corner search whose worst
// case sits in the glitch regime.
func TestExhaustiveMatchesFullLoop(t *testing.T) {
	byDir := map[bool][]searchInput{}
	for _, in := range netSearchInputs(t) {
		byDir[in.rising] = append(byDir[in.rising], in)
	}
	cfg := align.DefaultConfig(settleLib.Tech)
	glitch := align.Pulse{Height: -0.6 * settleVdd, Width: cfg.WidthMax}.Waveform()
	var wg sync.WaitGroup
	for ci, cell := range settleCells(t) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, rising := range []bool{true, false} {
				in := byDir[rising][ci%len(byDir[rising])]
				o := align.Objective{Receiver: cell, Load: 10e-15, VictimRising: rising}
				checkSearch(t, o, in, 5, (ci%2 == 0) == rising)
			}
			o := align.Objective{Receiver: cell, Load: cfg.MinLoad, VictimRising: true}
			checkSearch(t, o, searchInput{"corner-glitch", cornerTransition(cfg.SlewMin, true), glitch, true}, 5, true)
		}()
	}
	wg.Wait()
}

func checkSearch(t *testing.T, o align.Objective, in searchInput, grid int, latest bool) {
	t.Helper()
	search, ref := o.ExhaustiveBest, oldExhaustiveBest
	if latest {
		search, ref = o.ExhaustiveWorst, oldExhaustiveWorst
	}
	got, gotErr := search(in.noiseless, in.noise, grid)
	want, wantErr := ref(o, in.noiseless, in.noise, grid)
	if (gotErr != nil) != (wantErr != nil) ||
		gotErr == nil && (math.Float64bits(got.TPeak) != math.Float64bits(want.TPeak) ||
			math.Float64bits(got.TOut) != math.Float64bits(want.TOut) ||
			math.Float64bits(got.Va) != math.Float64bits(want.Va)) {
		t.Errorf("%s %s latest=%v: search (%+v, %v), full-run loop (%+v, %v)",
			o.Receiver.Name, in.name, latest, got, gotErr, want, wantErr)
	}
}

// oldExhaustiveWorst is ExhaustiveWorst as it was before the settled
// stop and the shared sweep, evaluating every alignment with a full
// receiver run.
func oldExhaustiveWorst(o align.Objective, noiseless, noise *waveform.PWL, nGrid int) (align.WorstResult, error) {
	if nGrid < 5 {
		nGrid = 5
	}
	lo, hi, err := align.SearchWindow(noiseless, noise, o.Vdd(), o.VictimRising)
	if err != nil {
		return align.WorstResult{}, err
	}
	eval := func(tp float64) (float64, error) {
		return fullCross(o, align.NoisyInput(noiseless, noise, tp))
	}
	bestT, bestOut := lo, math.Inf(-1)
	var lastErr error
	step := (hi - lo) / float64(nGrid-1)
	for i := 0; i < nGrid; i++ {
		tp := lo + float64(i)*step
		out, err := eval(tp)
		if err != nil {
			if errors.Is(err, noiseerr.ErrCanceled) {
				return align.WorstResult{}, err
			}
			lastErr = err
			continue
		}
		if out > bestOut {
			bestT, bestOut = tp, out
		}
	}
	if math.IsInf(bestOut, -1) {
		return align.WorstResult{}, noiseerr.Convergencef("align: no alignment produced an output crossing (last: %w)", lastErr)
	}
	for pass := 0; pass < 2; pass++ {
		step /= 2.5
		for _, tp := range []float64{bestT - 2*step, bestT - step, bestT + step, bestT + 2*step} {
			out, err := eval(tp)
			if err != nil {
				if errors.Is(err, noiseerr.ErrCanceled) {
					return align.WorstResult{}, err
				}
				continue
			}
			if out > bestOut {
				bestT, bestOut = tp, out
			}
		}
	}
	return align.WorstResult{TPeak: bestT, TOut: bestOut, Va: noiseless.At(bestT)}, nil
}

// oldExhaustiveBest is ExhaustiveBest as it was before the settled stop
// and the shared sweep, evaluating every alignment with a full receiver
// run.
func oldExhaustiveBest(o align.Objective, noiseless, noise *waveform.PWL, nGrid int) (align.WorstResult, error) {
	if nGrid < 5 {
		nGrid = 5
	}
	lo, hi, err := align.SearchWindow(noiseless, noise, o.Vdd(), o.VictimRising)
	if err != nil {
		return align.WorstResult{}, err
	}
	eval := func(tp float64) (float64, error) {
		return fullCross(o, align.NoisyInput(noiseless, noise, tp))
	}
	bestT, bestOut := lo, math.Inf(1)
	var lastErr error
	step := (hi - lo) / float64(nGrid-1)
	for i := 0; i < nGrid; i++ {
		tp := lo + float64(i)*step
		out, err := eval(tp)
		if err != nil {
			if errors.Is(err, noiseerr.ErrCanceled) {
				return align.WorstResult{}, err
			}
			lastErr = err
			continue
		}
		if out < bestOut {
			bestT, bestOut = tp, out
		}
	}
	if math.IsInf(bestOut, 1) {
		return align.WorstResult{}, noiseerr.Convergencef("align: no alignment produced an output crossing (last: %w)", lastErr)
	}
	for pass := 0; pass < 2; pass++ {
		step /= 2.5
		for _, tp := range []float64{bestT - 2*step, bestT - step, bestT + step, bestT + 2*step} {
			out, err := eval(tp)
			if err != nil {
				if errors.Is(err, noiseerr.ErrCanceled) {
					return align.WorstResult{}, err
				}
				continue
			}
			if out < bestOut {
				bestT, bestOut = tp, out
			}
		}
	}
	return align.WorstResult{TPeak: bestT, TOut: bestOut, Va: noiseless.At(bestT)}, nil
}
