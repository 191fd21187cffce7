package noisegw

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"repro/internal/clarinet"
	"repro/internal/device"
	"repro/internal/noised"
	"repro/internal/pathnoise"
	"repro/internal/workload"
)

// realBody generates an n-net workload against the default library —
// the exact bytes netgen would write.
func realBody(t testing.TB, n int) []byte {
	t.Helper()
	lib := device.NewLibrary(device.Default180())
	gen := workload.NewGenerator(lib, workload.DefaultProfile(), 7)
	cases, err := gen.Population(n)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("net%02d", i)
	}
	var buf bytes.Buffer
	if err := workload.Save(&buf, lib.Tech.Name, names, cases); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func realReplica(t testing.TB) *httptest.Server {
	t.Helper()
	// Fast heartbeats keep the gateway's stall watchdog fed while the
	// real engine characterizes (tens of seconds under -race).
	s, err := noised.New(noised.Config{Heartbeat: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// canonical renders records sorted by net as one JSON blob — the merge
// order varies with scheduling, the content must not.
func canonical(t testing.TB, recs []clarinet.JournalRecord) []byte {
	t.Helper()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Net < recs[j].Net })
	b, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGatewayMatchesSingleReplica is the result-integrity contract: a
// batch scattered over real noised replicas and merged by the gateway
// must produce byte-identical analysis records to the same batch run on
// one replica directly. The engine is deterministic per net, so any
// divergence is a gateway bug.
func TestGatewayMatchesSingleReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("real engine analysis")
	}
	body := realBody(t, 4)

	// Golden: one replica, direct.
	direct := realReplica(t)
	resp, err := http.Post(direct.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	golden, gsum := readGatewayStream(t, resp.Body)
	resp.Body.Close()
	if gsum == nil || gsum.OK != 4 {
		t.Fatalf("golden summary = %+v", gsum)
	}

	// Scattered: two replicas behind the gateway.
	_, ts := newTestGateway(t, func(cfg *Config) {
		cfg.Replicas = []string{realReplica(t).URL, realReplica(t).URL}
		// Real analysis is slow (and ~10x slower under -race); the
		// 1 s replica heartbeats are the liveness signal, so a stall
		// window far above the heartbeat period never false-trips.
		cfg.StallTimeout = 2 * time.Minute
	})
	recs, sum := postAnalyze(t, ts.URL, body)
	if sum == nil || sum.Nets != 4 || sum.OK != 4 {
		t.Fatalf("gateway summary = %+v", sum)
	}
	if got, want := canonical(t, recs), canonical(t, golden); !bytes.Equal(got, want) {
		t.Fatalf("merged records diverge from the single-replica run:\n got %s\nwant %s", got, want)
	}
}

// realPathBody generates n paths of the given stage count against the
// default library — the exact bytes netgen -topology path would write.
func realPathBody(t testing.TB, n, stages int) []byte {
	t.Helper()
	lib := device.NewLibrary(device.Default180())
	gen := workload.NewGenerator(lib, workload.DefaultProfile(), 97)
	names, cases, paths, err := gen.PathPopulation(n, stages)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := workload.SavePaths(&buf, lib.Tech.Name, names, cases, paths); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGatewayPathMatchesSingleReplica is the path twin of
// TestGatewayMatchesSingleReplica: paths scattered whole over real
// replicas and merged by the gateway must assemble reports that render
// byte-identically to the same workload run on one replica directly.
func TestGatewayPathMatchesSingleReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("real path analysis")
	}
	body := realPathBody(t, 2, 3)

	// Golden: one replica, direct.
	direct := realReplica(t)
	_, gsum := postAnalyzePath(t, direct.URL, body)
	if gsum == nil || gsum.Paths != 2 || gsum.OK != 2 {
		t.Fatalf("golden summary = %+v", gsum)
	}
	want, err := pathnoise.MarshalReport(gsum.Reports)
	if err != nil {
		t.Fatal(err)
	}

	// Scattered: two replicas behind the gateway.
	_, ts := newPathGateway(t, func(cfg *Config) {
		cfg.Replicas = []string{realReplica(t).URL, realReplica(t).URL}
	})
	_, sum := postAnalyzePath(t, ts.URL, body)
	if sum == nil || sum.Paths != 2 || sum.OK != 2 {
		t.Fatalf("gateway summary = %+v", sum)
	}
	got, err := pathnoise.MarshalReport(sum.Reports)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("gateway path report diverges from the single-replica run:\n got %s\nwant %s", got, want)
	}
}
