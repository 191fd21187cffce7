package nlsim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// trajectoryPins are FNV-64a digests of the Float64bits of Result.States
// for the gateFixture transients (TStop 3 ns, step 2 ps), recorded
// before the device-evaluation fast path (shared-log powers, value-only
// currents, exact-bias bypass, hinted waveform lookup) went in. Each of
// those pieces claims to change no bit of a trajectory; a digest that
// moves means one of them changed the arithmetic.
var trajectoryPins = []struct {
	cell       string
	fullNewton bool
	digest     uint64
}{
	{"INVX2", false, 0x546ba79e89121b8b},
	{"INVX2", true, 0xcbb5c63bd9ac2edf},
	{"NAND2X1", false, 0x0bb58ebb3fd6b948},
	{"NAND2X1", true, 0xecf2846864664ae6},
	{"BUFX4", false, 0x36a41aff5365a97d},
	{"BUFX4", true, 0x2db91205669f1f2b},
}

// statesDigest hashes every state value of a run as its IEEE-754 bits.
func statesDigest(res *Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range res.States.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestTrajectoryBitPins holds the cached and FullNewton transients of
// three library cells to their recorded bits. The digests depend on the
// platform's math library (amd64 has assembly Exp and Log), so the pin
// runs on amd64 only.
func TestTrajectoryBitPins(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("trajectory digests are recorded on amd64; %s math kernels round differently", runtime.GOARCH)
	}
	for _, pin := range trajectoryPins {
		res, err := Run(gateFixture(t, pin.cell), Options{TStop: 3e-9, Step: 2e-12, FullNewton: pin.fullNewton})
		if err != nil {
			t.Fatalf("%s fullNewton=%v: %v", pin.cell, pin.fullNewton, err)
		}
		if got := statesDigest(res); got != pin.digest {
			t.Errorf("%s fullNewton=%v: states digest %#x, want %#x", pin.cell, pin.fullNewton, got, pin.digest)
		}
	}
}
