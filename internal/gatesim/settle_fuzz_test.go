package gatesim_test

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/device"
	"repro/internal/gatesim"
	"repro/internal/thevenin"
	"repro/internal/waveform"
)

// settleLibs are the libraries the settled-stop fuzz draws receivers
// and drivers from: the default technology and the ff and ss corners.
var settleLibs = []*device.Library{
	device.NewLibrary(device.Default180()),
	device.NewLibrary(device.Fast180()),
	device.NewLibrary(device.Slow180()),
}

// settleCase is one fuzzed comparison: a cell whose input ramps at
// slew (rising or falling) into load, with a triangular noise pulse of
// signed peak height and half-height width peaking at tPeak
// superposed on the receiver's input. A nonzero horizon replaces the
// estimated one of both runs.
type settleCase struct {
	cell                 *device.Cell
	corner               int
	rising               bool
	slew, load           float64
	height, width, tPeak float64
	horizon              float64
}

// decodeSettleCase maps fuzz values onto the ranges the flows reach and
// past them: any library cell on any corner (flags bits 2-3), slews of
// 20-800 ps, loads of 1-200 fF on a log scale, pulse heights up to
// 0.6·Vdd against the transition or (flags bit 1) with it, widths of
// 20-500 ps, and peaks from two widths before the ramp to 1 ns after
// it ends. Flags bits 4-5 pick the horizon: estimated, or one that ends
// mid-ramp (nothing can settle, so the drive doubles it) or 100 ps
// after the ramp.
func decodeSettleCase(cellSel, flags uint8, slew, load, height, width, pos uint16) settleCase {
	frac := func(v uint16) float64 { return float64(v) / math.MaxUint16 }
	corner := int(flags>>2&3) % len(settleLibs)
	lib := settleLibs[corner]
	names := lib.Names()
	sc := settleCase{
		cell:   lib.Cells[names[int(cellSel)%len(names)]],
		corner: corner,
		rising: flags&1 != 0,
		slew:   20e-12 + 780e-12*frac(slew),
		load:   1e-15 * math.Pow(200, frac(load)),
		width:  20e-12 + 480e-12*frac(width),
	}
	sc.height = 0.6 * lib.Tech.Vdd * frac(height)
	if sc.rising == (flags&2 == 0) {
		sc.height = -sc.height // against the transition
	}
	early := gatesim.InputStart - 2*sc.width
	sc.tPeak = early + (gatesim.InputStart+sc.slew+1e-9-early)*frac(pos)
	switch flags >> 4 & 3 {
	case 2:
		sc.horizon = gatesim.InputStart + sc.slew/2
	case 3:
		sc.horizon = gatesim.InputStart + sc.slew + 100e-12
	}
	return sc
}

func (sc settleCase) opt() gatesim.Options { return gatesim.Options{Horizon: sc.horizon} }

// input is the receiver's noisy input.
func (sc settleCase) input() *waveform.PWL {
	in := gatesim.Input(sc.cell.Tech, sc.slew, sc.rising)
	if sc.height == 0 {
		return in
	}
	return waveform.Sum(in, align.Pulse{Height: sc.height, Width: sc.width}.Waveform().Shift(sc.tPeak))
}

// lastCross is the receiver objective's crossing: the output's last
// Vdd/2 crossing in its transition direction.
func (sc settleCase) lastCross(out *waveform.PWL) (float64, error) {
	half := sc.cell.Tech.Vdd / 2
	if sc.cell.OutputRisingFor(sc.rising) {
		return out.LastCrossRising(half)
	}
	return out.LastCrossFalling(half)
}

// firstCross is the output's first Vdd/2 crossing in its transition
// direction.
func (sc settleCase) firstCross(out *waveform.PWL) (float64, error) {
	half := sc.cell.Tech.Vdd / 2
	if sc.cell.OutputRisingFor(sc.rising) {
		return out.CrossRising(half)
	}
	return out.CrossFalling(half)
}

// outSlew is what a path handoff measures of a receiver output: the
// 20-80% interval of its transition, on first crossings
// (pathnoise.derivedSlew).
func (sc settleCase) outSlew(out *waveform.PWL) (float64, error) {
	v0, v1 := 0.0, sc.cell.Tech.Vdd
	if !sc.cell.OutputRisingFor(sc.rising) {
		v0, v1 = v1, v0
	}
	return out.Slew(v0, v1, 0.2, 0.8)
}

// sameRead reports whether two reads of a waveform agree: both fail, or
// both give the same bits.
func sameRead(a float64, aErr error, b float64, bErr error) bool {
	if aErr != nil || bErr != nil {
		return aErr != nil && bErr != nil
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// FuzzSettledStop compares stopped runs with full runs bit for bit. A
// ReceiveSettled run must hold the full Receive's first rows, give the
// same error or no-error outcome, and give what each reader of it
// takes, or the same absence of it: the last Vdd/2 crossing (the
// alignment objective), and the first Vdd/2 crossing and 20-80% slew
// (a path handoff); a DriveSettled search must end with the
// full DriveWithHorizon search's Horizon and Settled, its rows must be
// the final full attempt's first rows, and the Thevenin Model fitted to
// it must be the full fit's.
func FuzzSettledStop(f *testing.F) {
	f.Fuzz(func(t *testing.T, cellSel, flags uint8, slew, load, height, width, pos uint16) {
		sc := decodeSettleCase(cellSel, flags, slew, load, height, width, pos)
		in := sc.input()
		full, fullErr := gatesim.Receive(sc.cell, in, sc.load, sc.opt())
		got, _, gotErr := gatesim.ReceiveSettled(sc.cell, in, sc.load, sc.opt())
		if (fullErr != nil) != (gotErr != nil) {
			t.Fatalf("%+v: receiver errors differ: full %v, settled %v", sc, fullErr, gotErr)
		}
		if fullErr == nil {
			if !isPrefix(got, full) {
				t.Fatalf("%+v: settled receiver rows are not the full run's first rows", sc)
			}
			for _, read := range []struct {
				name string
				f    func(*waveform.PWL) (float64, error)
			}{{"last crossing", sc.lastCross}, {"first crossing", sc.firstCross}, {"20-80% slew", sc.outSlew}} {
				wv, wErr := read.f(full)
				gv, gErr := read.f(got)
				if !sameRead(gv, gErr, wv, wErr) {
					t.Fatalf("%+v: %s (%v, %v) settled, (%v, %v) full", sc, read.name, gv, gErr, wv, wErr)
				}
			}
		}

		fullD, fullErr := gatesim.DriveWithHorizon(sc.cell, sc.slew, sc.rising, sc.load, nil, sc.opt())
		gotD, gotErr := gatesim.DriveSettled(sc.cell, sc.slew, sc.rising, sc.load, sc.opt())
		if (fullErr != nil) != (gotErr != nil) {
			t.Fatalf("%+v: drive errors differ: full %v, settled %v", sc, fullErr, gotErr)
		}
		if fullErr != nil {
			return
		}
		if math.Float64bits(fullD.Horizon) != math.Float64bits(gotD.Horizon) || fullD.Settled != gotD.Settled {
			t.Fatalf("%+v: drive ended at (%g, %v) settled, (%g, %v) full", sc, gotD.Horizon, gotD.Settled, fullD.Horizon, fullD.Settled)
		}
		if !isPrefix(gotD.Out, fullD.Out) {
			t.Fatalf("%+v: settled drive rows are not the full attempt's first rows", sc)
		}
		vdd, outRising := sc.cell.Tech.Vdd, sc.cell.OutputRisingFor(sc.rising)
		wm, wErr := thevenin.FitWaveform(fullD.Out, vdd, sc.load, outRising)
		gm, gErr := thevenin.FitWaveform(gotD.Out, vdd, sc.load, outRising)
		if (wErr != nil) != (gErr != nil) || wErr == nil && wm != gm {
			t.Fatalf("%+v: model (%+v, %v) settled, (%+v, %v) full", sc, gm, gErr, wm, wErr)
		}
	})
}

// isPrefix reports whether a's breakpoints are b's first ones, bit for
// bit.
func isPrefix(a, b *waveform.PWL) bool {
	if a.Len() > b.Len() {
		return false
	}
	for i := range a.T {
		if math.Float64bits(a.T[i]) != math.Float64bits(b.T[i]) || math.Float64bits(a.V[i]) != math.Float64bits(b.V[i]) {
			return false
		}
	}
	return true
}

// TestSettledStopCorpusCoversRegimes holds the committed seed corpus to
// the cases the certificates must get right: a glitch that carries the
// receiver output back across Vdd/2 (so the last crossing is a
// re-crossing) in a run the certificate stops, a pulse landing after
// the input transition, BUFX4 (whose internal node drives the output
// stage), an ff or ss corner, a run the certificate never stops, and
// an output without a 20-80% transition for a handoff to measure.
func TestSettledStopCorpusCoversRegimes(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzSettledStop", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed corpus for FuzzSettledStop (err %v)", err)
	}
	var recross, late, bufx4, corner, unstopped, noSlew int
	for _, file := range files {
		sc := decodeSettleCase(readSettleCorpus(t, file))
		in := sc.input()
		out, err := gatesim.Receive(sc.cell, in, sc.load, sc.opt())
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if _, err := sc.outSlew(out); err != nil {
			noSlew++
		}
		if sc.height != 0 && sc.tPeak-sc.width > gatesim.InputStart+sc.slew {
			late++
		}
		if sc.cell.Name == "BUFX4" {
			bufx4++
		}
		if sc.corner != 0 {
			corner++
		}
		_, stopped, err := gatesim.ReceiveSettled(sc.cell, in, sc.load, sc.opt())
		d, derr := gatesim.DriveSettled(sc.cell, sc.slew, sc.rising, sc.load, sc.opt())
		if err != nil || derr != nil {
			t.Fatalf("%s: %v / %v", file, err, derr)
		}
		if !stopped || d.Out.End() > 0.9*d.Horizon {
			unstopped++
		}
		if stopped && crossings(out, sc.cell.Tech.Vdd/2) >= 3 {
			recross++
		}
	}
	if recross == 0 || late == 0 || bufx4 == 0 || corner == 0 || unstopped == 0 || noSlew == 0 {
		t.Fatalf("corpus misses a regime: stopped re-crossing %d, late pulse %d, BUFX4 %d, ff/ss corner %d, never stopped %d, no 20-80%% slew %d",
			recross, late, bufx4, corner, unstopped, noSlew)
	}
}

// crossings counts the segments of w that cross level in either
// direction.
func crossings(w *waveform.PWL, level float64) int {
	n := 0
	for i := 1; i < w.Len(); i++ {
		if (w.V[i-1] < level) != (w.V[i] < level) {
			n++
		}
	}
	return n
}

// readSettleCorpus parses one FuzzSettledStop corpus file in the format
// the go command writes: a version line, two byte('…') lines and five
// uint16(…) lines.
func readSettleCorpus(t *testing.T, file string) (cellSel, flags uint8, slew, load, height, width, pos uint16) {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 8 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: want a version line and seven values, got %q", file, lines)
	}
	bytes := make([]uint8, 2)
	for i := range bytes {
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[1+i], "byte("), ")")
		if len(lit) < 3 || lit[0] != '\'' || lit[len(lit)-1] != '\'' {
			t.Fatalf("%s: %q is not a byte value", file, lines[1+i])
		}
		r, _, tail, err := strconv.UnquoteChar(lit[1:len(lit)-1], '\'')
		if err != nil || tail != "" || r > math.MaxUint8 {
			t.Fatalf("%s: %q is not a byte value: %v", file, lines[1+i], err)
		}
		bytes[i] = uint8(r)
	}
	words := make([]uint16, 5)
	for i := range words {
		v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(lines[3+i], "uint16("), ")"), 10, 16)
		if err != nil {
			t.Fatalf("%s: %q is not a uint16 value: %v", file, lines[3+i], err)
		}
		words[i] = uint16(v)
	}
	return bytes[0], bytes[1], words[0], words[1], words[2], words[3], words[4]
}
