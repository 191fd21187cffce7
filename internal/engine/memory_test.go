package engine_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/workload"
)

// liveHeap is the heap that survives a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	// Two cycles: the first frees what sync.Pool victim caches held.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSessionRetainsLittlePerNet analyzes 20 distinct default nets
// under transient hold through one session and measures what the
// session keeps afterwards: its memos may hold each net's
// characterizations, about 2 KB per net, but nothing a net's analysis
// needed only for itself — in particular not its noiseless
// holding-resistance drive, about 64 KB.
func TestSessionRetainsLittlePerNet(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes 20 nets")
	}
	const nets, perNet = 20, 8 << 10
	lib := device.NewLibrary(device.Default180())
	cases, err := workload.NewGenerator(lib, workload.DefaultProfile(), 7).Population(nets)
	if err != nil {
		t.Fatal(err)
	}
	s := engine.New(engine.Config{Lib: lib})
	opt := s.Bind(delaynoise.Options{Hold: delaynoise.HoldTransient, Align: delaynoise.AlignReceiverInput})
	before := liveHeap()
	for i, c := range cases {
		if _, err := delaynoise.AnalyzeContext(context.Background(), c, opt); err != nil {
			t.Fatalf("net %d: %v", i, err)
		}
	}
	after := liveHeap()
	runtime.KeepAlive(s)
	runtime.KeepAlive(cases)
	grown := int64(after) - int64(before)
	t.Logf("retained %d bytes over %d nets (%.1f KB per net)", grown, nets, float64(grown)/nets/1024)
	if grown > nets*perNet {
		t.Fatalf("the session retained %d bytes over %d nets, more than %d per net", grown, nets, perNet)
	}
}
