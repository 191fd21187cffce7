package lsim_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lsim"
	"repro/internal/mna"
	"repro/internal/rcnet"
	"repro/internal/waveform"
)

// groupCase is one FuzzGroup input: a system, the input sets run over
// it as one group, the nodes the group records and the run options.
type groupCase struct {
	sys   *mna.System
	sets  [][]*waveform.PWL
	nodes []string
	opt   lsim.Options
}

// drawGroupCase builds a FuzzGroup input from its seed and three shape
// bytes: an rcnet coupled net of 1-4 lines of 2-14 segments, a driver
// with a random resistance on each line, 1-4 input sets of ramps and
// constants over every driver (negative levels and -0 among them), a
// random choice of recorded nodes (every node when nil) and run
// options, one draw in eight of them invalid.
func drawGroupCase(seed uint64, lines, segs, sets uint8) groupCase {
	rng := rand.New(rand.NewSource(int64(seed)))
	nl := 1 + int(lines)%4
	line := func(name string) rcnet.LineSpec {
		return rcnet.LineSpec{
			Name:     name,
			Segments: 2 + int(segs)%13,
			RTotal:   50 + 950*rng.Float64(),
			CGround:  (5 + 60*rng.Float64()) * 1e-15,
		}
	}
	spec := rcnet.CoupledSpec{Victim: line("v")}
	for k := 1; k < nl; k++ {
		from := 0.5 * rng.Float64()
		spec.Aggressors = append(spec.Aggressors, rcnet.AggressorSpec{
			Line:    line(fmt.Sprintf("a%d", k)),
			CCouple: (2 + 40*rng.Float64()) * 1e-15,
			From:    from,
			To:      from + (1-from)*(0.2+0.8*rng.Float64()),
		})
	}
	net := rcnet.Build(spec)
	ckt := net.Circuit
	for k, node := range append([]string{net.VictimIn}, net.AggIn...) {
		ckt.AddDriver(fmt.Sprintf("d%d", k), node, waveform.Constant(0), 50+4950*rng.Float64())
	}
	sys, err := mna.Build(ckt)
	if err != nil {
		panic(err)
	}

	level := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return 0
		default:
			return 3.6*rng.Float64() - 1.8
		}
	}
	c := groupCase{sys: sys}
	for j := 0; j < 1+int(sets)%4; j++ {
		set := make([]*waveform.PWL, sys.NumInputs())
		for i := range set {
			if rng.Intn(3) == 0 {
				set[i] = waveform.Constant(level())
			} else {
				set[i] = waveform.Ramp(5e-10*rng.Float64(), 1e-12+3e-10*rng.Float64(), level(), level())
			}
		}
		c.sets = append(c.sets, set)
	}
	if rng.Intn(4) > 0 {
		for _, i := range rng.Perm(sys.NumStates())[:1+rng.Intn(min(4, sys.NumStates()))] {
			c.nodes = append(c.nodes, sys.Nodes[i])
		}
	}

	c.opt = lsim.Options{TStop: 4e-10 + 8e-10*rng.Float64(), Step: 1e-12 * float64(1+rng.Intn(3))}
	switch rng.Intn(8) {
	case 0:
		c.opt.Step = 0 // invalid
	case 1, 2:
		c.opt.X0 = make([]float64, sys.NumStates())
		for i := range c.opt.X0 {
			c.opt.X0[i] = level()
		}
	case 3:
		// The zero state.
	default:
		c.opt.InitDC = true
	}
	return c
}

// FuzzGroup holds RunGroup to Run: each set's rows, at every node the
// group records, must equal a Run of the system on that set's inputs
// bit for bit, and the group must fail where that Run fails, with its
// error.
func FuzzGroup(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, lines, segs, sets uint8) {
		c := drawGroupCase(seed, lines, segs, sets)
		got, gerr := lsim.RunGroup(c.sys, c.sets, c.nodes, c.opt)
		nodes := c.nodes
		if nodes == nil {
			nodes = c.sys.Nodes
		}
		for j, set := range c.sets {
			one, err := mna.NewSystem(c.sys.G, c.sys.C, c.sys.B, set, c.sys.Nodes)
			if err != nil {
				t.Fatal(err)
			}
			want, werr := lsim.Run(one, c.opt)
			if werr != nil || gerr != nil {
				if fmt.Sprint(werr) != fmt.Sprint(gerr) {
					t.Fatalf("set %d: Run fails with %v, the group with %v", j, werr, gerr)
				}
				continue
			}
			if len(got[j].Times) != len(want.Times) {
				t.Fatalf("set %d: %d rows, Run has %d", j, len(got[j].Times), len(want.Times))
			}
			for _, node := range nodes {
				gw, err := got[j].Voltage(node)
				if err != nil {
					t.Fatalf("set %d: %v", j, err)
				}
				ww, _ := want.Voltage(node)
				for k := range ww.T {
					if math.Float64bits(gw.T[k]) != math.Float64bits(ww.T[k]) || math.Float64bits(gw.V[k]) != math.Float64bits(ww.V[k]) {
						t.Fatalf("set %d of %d, node %s, row %d: (%v, %v), Run gives (%v, %v)",
							j, len(c.sets), node, k, gw.T[k], gw.V[k], ww.T[k], ww.V[k])
					}
				}
			}
		}
	})
}

// TestGroupCorpusCovers pins the committed FuzzGroup corpus to what the
// target exists to reach: the dense factor under groups of one to four
// sets (each width of its solve), the banded factor under a group, a
// recorded subset and every node, all three initial states, a -0 input
// level and an invalid run.
func TestGroupCorpusCovers(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzGroup", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed corpus for FuzzGroup (err %v)", err)
	}
	seen := map[string]bool{}
	for _, file := range files {
		seed, b := readGroupCorpus(t, file)
		c := drawGroupCase(seed, b[0], b[1], b[2])
		seen[fmt.Sprintf("all-nodes=%v", c.nodes == nil)] = true
		switch {
		case c.opt.Step <= 0:
			seen["invalid"] = true
			continue
		case c.opt.X0 != nil:
			seen["x0"] = true
		case c.opt.InitDC:
			seen["dc"] = true
		default:
			seen["zero"] = true
		}
		fac, err := lsim.PreparedFactor(c.sys, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		seen[fmt.Sprintf("%T sets=%d", fac, len(c.sets))] = true
		for _, set := range c.sets {
			for _, w := range set {
				for _, v := range w.V {
					if v == 0 && math.Signbit(v) {
						seen["-0"] = true
					}
				}
			}
		}
	}
	for _, want := range []string{"*linalg.CompactLU sets=1", "*linalg.CompactLU sets=2", "*linalg.CompactLU sets=3",
		"*linalg.CompactLU sets=4", "*linalg.BandedChol sets=4", "all-nodes=true", "all-nodes=false",
		"dc", "x0", "zero", "-0", "invalid"} {
		if !seen[want] {
			t.Errorf("corpus misses %s", want)
		}
	}
}

// readGroupCorpus parses one FuzzGroup corpus file in the format the
// go command writes: a version line, a uint64(…) line and three
// byte('…') lines.
func readGroupCorpus(t *testing.T, file string) (uint64, [3]uint8) {
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
	return seed, bytes
}
