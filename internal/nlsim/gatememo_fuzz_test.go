package nlsim

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/device"
)

// memoParamSets are the device parameter sets the bypass fuzz drives:
// both polarities of the three corners, and NMOS devices whose Alpha
// makes pow take its special exponents (1) or integer ones only (2).
func memoParamSets() []device.MOSParams {
	sets := []device.MOSParams{
		device.Default180().N, device.Default180().P,
		device.Fast180().N, device.Fast180().P,
		device.Slow180().N, device.Slow180().P,
	}
	for _, alpha := range []float64{1, 2} {
		p := device.Default180().N
		p.Alpha, p.Vth, p.Vs = alpha, 0.5, 0.02
		sets = append(sets, p)
	}
	return sets
}

// memoStep is one evaluation request of a fuzzed sequence.
type memoStep struct {
	vgs, vds float64
	derivs   bool
}

// decodeMemoSteps turns fuzz bytes into a sequence of evaluations of
// one FET. Each step starts with a control byte: bits 0-1 pick the vgs
// (keep the previous bits, a volt grid from the next byte, deep cutoff
// where vgst is 0 for every parameter set, or raw float bits from the
// next 8 bytes), bits 2-3 pick the vds (keep, a grid from the next byte
// spanning negative values, the previous vds negated, or raw bits), and
// bit 4 asks for derivatives. Bits 5-7 set the cutoff depth.
func decodeMemoSteps(ops []byte) []memoStep {
	next := func(n int) ([]byte, bool) {
		if len(ops) < n {
			return nil, false
		}
		b := ops[:n]
		ops = ops[n:]
		return b, true
	}
	var steps []memoStep
	vgs, vds := 1.2, 0.9
	for len(ops) > 0 {
		c := ops[0]
		ops = ops[1:]
		switch c & 3 {
		case 1:
			if b, ok := next(1); ok {
				vgs = -2 + 5*float64(b[0])/255
			}
		case 2:
			vgs = -1.5 - float64(c>>5)/8
		case 3:
			if b, ok := next(8); ok {
				vgs = math.Float64frombits(binary.LittleEndian.Uint64(b))
			}
		}
		switch (c >> 2) & 3 {
		case 1:
			if b, ok := next(1); ok {
				vds = -0.6 + 2.6*float64(b[0])/255
			}
		case 2:
			vds = -vds
		case 3:
			if b, ok := next(8); ok {
				vds = math.Float64frombits(binary.LittleEndian.Uint64(b))
			}
		}
		steps = append(steps, memoStep{vgs: vgs, vds: vds, derivs: c&16 != 0})
	}
	return steps
}

// FuzzGateMemo drives one FET's two-level bypass entry through a fuzzed
// sequence of biases and bit-compares every result with a fresh
// device evaluation: id always, gm and gds whenever the step asks for
// them (a value-only step may replay stored derivatives, which callers
// discard).
func FuzzGateMemo(f *testing.F) {
	sets := memoParamSets()
	f.Fuzz(func(t *testing.T, sel uint8, ops []byte) {
		p := sets[int(sel)%len(sets)]
		w := 1e-6 * float64(1+sel/16)
		var m fetMemo
		for i, st := range decodeMemoSteps(ops) {
			id, gm, gds := m.eval(&p, w, st.vgs, st.vds, st.derivs)
			wid, wgm, wgds := p.Eval(w, st.vgs, st.vds, st.derivs)
			if !sameBits(id, wid) || st.derivs && (!sameBits(gm, wgm) || !sameBits(gds, wgds)) {
				t.Fatalf("step %d %+v: bypass gives (%v, %v, %v), Eval (%v, %v, %v)",
					i, st, id, gm, gds, wid, wgm, wgds)
			}
		}
	})
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestGateMemoCorpusCoversRegimes pins the committed seed corpus to the
// sequences the bypass must get right: a repeated vgs with a moving vds
// (gate reuse), a value-only entry later asked for derivatives at the
// same bias, negative vds, and vgst <= 0.
func TestGateMemoCorpusCoversRegimes(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzGateMemo", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed corpus for FuzzGateMemo (err %v)", err)
	}
	sets := memoParamSets()
	var gateReuse, derivsLater, negVds, cutoff int
	for _, file := range files {
		sel, ops := readMemoCorpus(t, file)
		p := sets[int(sel)%len(sets)]
		var prev memoStep
		for i, st := range decodeMemoSteps(ops) {
			if i > 0 && sameBits(st.vgs, prev.vgs) {
				if !sameBits(st.vds, prev.vds) {
					gateReuse++
				} else if st.derivs && !prev.derivs {
					derivsLater++
				}
			}
			if st.vds < 0 {
				negVds++
			}
			if (st.vgs-p.Vth)/p.Vs < -40 { // softplus gives vgst == 0 exactly
				cutoff++
			}
			prev = st
		}
	}
	if gateReuse == 0 || derivsLater == 0 || negVds == 0 || cutoff == 0 {
		t.Fatalf("corpus misses a regime: gate reuse %d, value-only then derivs %d, vds < 0 %d, vgst <= 0 %d",
			gateReuse, derivsLater, negVds, cutoff)
	}
}

// readMemoCorpus parses one FuzzGateMemo corpus file in the format the
// go command writes: a version line, a byte('…') line and a
// []byte("…") line.
func readMemoCorpus(t *testing.T, file string) (uint8, []byte) {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: want a version line and two values, got %q", file, lines)
	}
	unquote := func(line, typ string) string {
		v, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, typ+"("), ")"))
		if err != nil {
			t.Fatalf("%s: %q is not a %s value: %v", file, line, typ, err)
		}
		return v
	}
	sel, _ := utf8.DecodeRuneInString(unquote(lines[1], "byte"))
	return uint8(sel), []byte(unquote(lines[2], "[]byte"))
}
