package noised

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/clarinet"
	"repro/internal/colblob"
	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/resilience"
	"repro/internal/workload"
)

// testBody builds a real n-net workload body against the default
// library, the exact bytes netgen would have written.
func testBody(t *testing.T, n int) ([]string, []byte) {
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
	return names, buf.Bytes()
}

// fakeResult is a minimal successful analysis outcome.
func fakeResult(i int) *delaynoise.Result {
	res := &delaynoise.Result{
		QuietCombinedDelay: 1e-10,
		DelayNoise:         float64(i+1) * 1e-12,
		Iterations:         1,
	}
	res.NoisyCombinedDelay = res.QuietCombinedDelay + res.DelayNoise
	return res
}

// instantBatch is a runBatch fake that completes every pending net
// immediately, honoring the prior map and journal like StreamBatch.
func instantBatch(t *clarinet.Tool, ctx context.Context, names []string, cases []*delaynoise.Case, prior map[string]clarinet.NetReport, j *clarinet.Journal) <-chan clarinet.NetReport {
	out := make(chan clarinet.NetReport)
	go func() {
		defer close(out)
		for i, name := range names {
			r, ok := prior[name]
			if ok {
				r.Name = name
			} else {
				r = clarinet.NetReport{Name: name, Res: fakeResult(i)}
				j.Record(r)
			}
			select {
			case out <- r:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}

// newTestServer builds a noised server plus an httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// readStream decodes an NDJSON analyze response into its records and
// terminal summary.
func readStream(t *testing.T, body io.Reader) ([]clarinet.JournalRecord, *Summary) {
	t.Helper()
	var recs []clarinet.JournalRecord
	var sum *Summary
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var sl StreamLine
		if err := json.Unmarshal(sc.Bytes(), &sl); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch {
		case sl.Summary != nil:
			if sum != nil {
				t.Fatal("two summary lines")
			}
			sum = sl.Summary
		case sl.Net != "":
			if sum != nil {
				t.Fatal("record after the summary line")
			}
			recs = append(recs, sl.JournalRecord)
		case sl.Heartbeat:
			// keepalive only; carries no data
		default:
			t.Fatalf("unclassifiable stream line %q", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs, sum
}

// TestAnalyzeStream drives a full request through the HTTP surface with
// an instant fake pool: every net must come back as one NDJSON record,
// terminated by a summary that accounts for all of them.
func TestAnalyzeStream(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.runBatch = instantBatch
	names, body := testBody(t, 4)

	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	recs, sum := readStream(t, resp.Body)
	if len(recs) != len(names) {
		t.Fatalf("got %d records, want %d", len(recs), len(names))
	}
	seen := map[string]bool{}
	for _, r := range recs {
		if r.Result == nil || r.Error != "" {
			t.Fatalf("record %+v is not a clean success", r)
		}
		seen[r.Net] = true
	}
	for _, n := range names {
		if !seen[n] {
			t.Fatalf("net %s missing from stream", n)
		}
	}
	if sum == nil || sum.Nets != 4 || sum.OK != 4 || sum.Failed != 0 || sum.Canceled != 0 {
		t.Fatalf("summary = %+v", sum)
	}
}

// TestAnalyzeStreamColblob: a client that sends
// Accept: application/x-noise-colblob gets the binary wire — the same
// records as NDJSON, in colblob frames, with the summary as a JSON
// payload in a summary frame.
func TestAnalyzeStreamColblob(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.runBatch = instantBatch
	names, body := testBody(t, 4)

	req, err := http.NewRequest("POST", ts.URL+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", clarinet.ContentTypeColblob)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != clarinet.ContentTypeColblob {
		t.Fatalf("content type = %q", ct)
	}
	fr := colblob.NewFrameReader(resp.Body)
	var dec clarinet.BinaryRecordDecoder
	seen := map[string]bool{}
	var sum *Summary
	for {
		kind, payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch kind {
		case colblob.FrameRecord:
			if sum != nil {
				t.Fatal("record frame after the summary frame")
			}
			rec, err := dec.Decode(payload)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Result == nil || rec.Error != "" {
				t.Fatalf("record %+v is not a clean success", rec)
			}
			seen[rec.Net] = true
		case colblob.FrameSummary:
			if sum != nil {
				t.Fatal("two summary frames")
			}
			sum = &Summary{}
			if err := json.Unmarshal(payload, sum); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("unexpected frame kind %#x", kind)
		}
	}
	for _, n := range names {
		if !seen[n] {
			t.Fatalf("net %s missing from stream", n)
		}
	}
	if sum == nil || sum.Nets != 4 || sum.OK != 4 || sum.Failed != 0 {
		t.Fatalf("summary = %+v", sum)
	}
}

// TestValidationRejections exercises the 4xx surface: malformed options,
// oversized case sets, empty bodies, and unsafe request IDs.
func TestValidationRejections(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxNets: 2})
	s.runBatch = instantBatch
	_, body := testBody(t, 3)
	_, small := testBody(t, 1)

	for _, tc := range []struct {
		name, url, body string
		want            int
	}{
		{"bad align", "/v1/analyze?align=sideways", string(small), http.StatusBadRequest},
		{"bad hold", "/v1/analyze?hold=forever", string(small), http.StatusBadRequest},
		{"bad rescue", "/v1/analyze?rescue=maybe", string(small), http.StatusBadRequest},
		{"bad net timeout", "/v1/analyze?net_timeout=-3s", string(small), http.StatusBadRequest},
		{"bad request id", "/v1/analyze?request_id=../escape", string(small), http.StatusBadRequest},
		{"too many nets", "/v1/analyze", string(body), http.StatusRequestEntityTooLarge},
		{"empty case set", "/v1/analyze", `{"cases":[]}`, http.StatusBadRequest},
		{"malformed json", "/v1/analyze", `{"cases":`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+tc.url, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status = %s, want %d", tc.name, resp.Status, tc.want)
		}
	}
}

// blockingBatch returns a runBatch fake that parks until release is
// closed (or the stream context dies), reporting the context it was
// given on started.
func blockingBatch(started chan context.Context, release chan struct{}) runBatchFunc {
	return func(_ *clarinet.Tool, ctx context.Context, names []string, _ []*delaynoise.Case, _ map[string]clarinet.NetReport, _ *clarinet.Journal) <-chan clarinet.NetReport {
		out := make(chan clarinet.NetReport)
		go func() {
			defer close(out)
			started <- ctx
			select {
			case <-release:
				for i, n := range names {
					select {
					case out <- clarinet.NetReport{Name: n, Res: fakeResult(i)}:
					case <-ctx.Done():
						return
					}
				}
			case <-ctx.Done():
			}
		}()
		return out
	}
}

// TestAdmissionShedsWhenFull saturates a one-slot, zero-queue server:
// the second concurrent request must be shed with 503 + Retry-After
// while the first is still streaming, and the inflight gauge must track
// the slot.
func TestAdmissionShedsWhenFull(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1, MaxQueue: -1, RetryAfter: 2 * time.Second})
	started := make(chan context.Context, 1)
	release := make(chan struct{})
	s.runBatch = blockingBatch(started, release)
	_, body := testBody(t, 1)

	first := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			first <- err
			return
		}
		defer resp.Body.Close()
		_, sum := readStream(t, resp.Body)
		if sum == nil || sum.OK != 1 {
			first <- fmt.Errorf("first request summary = %+v", sum)
			return
		}
		first <- nil
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("first request never reached the pool")
	}
	if g := s.Metrics().Gauge("server.inflight").Value(); g != 1 {
		t.Fatalf("server.inflight = %d, want 1", g)
	}

	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated status = %s, want 503", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}

	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if g := s.Metrics().Gauge("server.inflight").Value(); g != 0 {
		t.Fatalf("server.inflight after completion = %d, want 0", g)
	}
}

// TestDisconnectCancelsPool drops the client mid-stream and asserts the
// server cancels the analysis context instead of computing for nobody.
func TestDisconnectCancelsPool(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	started := make(chan context.Context, 1)
	s.runBatch = blockingBatch(started, make(chan struct{})) // never released
	_, body := testBody(t, 1)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var poolCtx context.Context
	select {
	case poolCtx = <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("request never reached the pool")
	}
	cancel() // the client walks away
	select {
	case <-poolCtx.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("pool context not canceled after client disconnect")
	}
}

// TestRequestDeadlineCutsStream bounds a request with a tiny timeout:
// the stream must still terminate with a summary, flagged Deadline.
func TestRequestDeadlineCutsStream(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	started := make(chan context.Context, 1)
	s.runBatch = blockingBatch(started, make(chan struct{})) // never released
	_, body := testBody(t, 1)

	resp, err := http.Post(ts.URL+"/v1/analyze?timeout=50ms", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	recs, sum := readStream(t, resp.Body)
	if len(recs) != 0 {
		t.Fatalf("got %d records from a stalled pool, want 0", len(recs))
	}
	if sum == nil || !sum.Deadline {
		t.Fatalf("summary = %+v, want Deadline", sum)
	}
}

// TestGracefulDrain flips the server into drain mode with one stream in
// flight: readiness and new analyses must refuse immediately while the
// in-flight stream runs to completion.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	started := make(chan context.Context, 1)
	release := make(chan struct{})
	s.runBatch = blockingBatch(started, release)
	_, body := testBody(t, 1)

	first := make(chan *Summary, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			first <- nil
			return
		}
		defer resp.Body.Close()
		_, sum := readStream(t, resp.Body)
		first <- sum
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("first request never reached the pool")
	}

	s.front.Gate.Drain()
	if !s.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %s, want 503", resp.Status)
	}
	resp, err = http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("analyze while draining = %s, want 503", resp.Status)
	}

	// The in-flight stream is untouched by the drain.
	close(release)
	sum := <-first
	if sum == nil || sum.OK != 1 {
		t.Fatalf("in-flight summary after drain = %+v", sum)
	}
	if !sum.Draining {
		t.Fatal("summary must flag the drain")
	}
}

// TestHealthz checks the liveness payload: build identity, readiness,
// and load gauges all present.
func TestHealthz(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Draining {
		t.Fatalf("health = %+v", h)
	}
	if h.Build.Version == "" {
		t.Fatal("health must carry the build version")
	}
	s.front.Gate.Drain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" || !h.Draining {
		t.Fatalf("draining health = %+v", h)
	}
}

// TestJournalResume resubmits a request ID whose first attempt
// journaled part of the batch: the prior nets must replay from the
// journal and the summary must count them as resumed.
func TestJournalResume(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{JournalDir: dir})
	names, body := testBody(t, 3)

	// First attempt: the fake pool finishes only the first two nets and
	// then dies mid-request (as a kill would), leaving their journal.
	s.runBatch = func(_ *clarinet.Tool, ctx context.Context, names []string, _ []*delaynoise.Case, prior map[string]clarinet.NetReport, j *clarinet.Journal) <-chan clarinet.NetReport {
		out := make(chan clarinet.NetReport)
		go func() {
			defer close(out)
			for i, n := range names[:2] {
				r := clarinet.NetReport{Name: n, Res: fakeResult(i)}
				j.Record(r)
				out <- r
			}
		}()
		return out
	}
	resp, err := http.Post(ts.URL+"/v1/analyze?request_id=batch-7", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := readStream(t, resp.Body)
	resp.Body.Close()
	if len(recs) != 2 {
		t.Fatalf("first attempt streamed %d records, want 2", len(recs))
	}

	// Second attempt: the real-ish pool sees the journaled nets as
	// prior and analyzes only the remainder.
	var gotPrior map[string]clarinet.NetReport
	s.runBatch = func(tl *clarinet.Tool, ctx context.Context, names []string, cases []*delaynoise.Case, prior map[string]clarinet.NetReport, j *clarinet.Journal) <-chan clarinet.NetReport {
		gotPrior = prior
		return instantBatch(tl, ctx, names, cases, prior, j)
	}
	resp, err = http.Post(ts.URL+"/v1/analyze?request_id=batch-7", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	recs, sum := readStream(t, resp.Body)
	resp.Body.Close()
	if len(recs) != 3 {
		t.Fatalf("resumed attempt streamed %d records, want 3", len(recs))
	}
	if len(gotPrior) != 2 {
		t.Fatalf("resumed attempt saw %d prior nets, want 2: %v", len(gotPrior), gotPrior)
	}
	for _, n := range names[:2] {
		if _, ok := gotPrior[n]; !ok {
			t.Fatalf("net %s missing from prior", n)
		}
	}
	if sum == nil || sum.Resumed != 2 || sum.OK != 3 {
		t.Fatalf("resumed summary = %+v", sum)
	}
}

// TestWarmSessionAcrossRequests is the acceptance criterion of the
// serving layer, end to end with the real pool: two identical requests
// against one server process, where the second must hit the warm
// session — zero new alignment-table builds or driver
// characterizations, and no new resident cache entries. (Each analysis
// runs its own noiseless holding-resistance drive, so the warm request
// reruns those by design.)
func TestWarmSessionAcrossRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("real analysis; skipped in -short")
	}
	s, ts := newTestServer(t, Config{})
	_, body := testBody(t, 1)

	run := func() {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		recs, sum := readStream(t, resp.Body)
		if sum == nil || sum.OK != 1 {
			t.Fatalf("summary = %+v (records %+v)", sum, recs)
		}
	}
	run()
	snap := s.Metrics().Snapshot()
	coldTables := snap.Counters["cache.tables.miss"]
	coldChars := snap.Counters["cache.char.full.miss"]
	if coldTables == 0 {
		t.Fatalf("cold request built no alignment tables; metrics %+v", snap.Counters)
	}
	entries := []string{"cache.tables.entries", "cache.char.rough.entries", "cache.char.full.entries"}
	coldEntries := map[string]int64{}
	for _, g := range entries {
		if coldEntries[g] = snap.Gauges[g]; coldEntries[g] <= 0 {
			t.Fatalf("cold request left gauge %s at %d; gauges %+v", g, coldEntries[g], snap.Gauges)
		}
	}
	run()
	snap = s.Metrics().Snapshot()
	if n := snap.Counters["cache.tables.miss"]; n != coldTables {
		t.Fatalf("warm request rebuilt alignment tables: %d -> %d misses", coldTables, n)
	}
	if n := snap.Counters["cache.char.full.miss"]; n != coldChars {
		t.Fatalf("warm request recharacterized drivers: %d -> %d misses", coldChars, n)
	}
	for _, g := range entries {
		if n := snap.Gauges[g]; n != coldEntries[g] {
			t.Fatalf("warm request changed the resident entries: %s %d -> %d", g, coldEntries[g], n)
		}
	}
}

// TestMetricsEndpoint spot-checks the /metrics JSON shape.
func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.Metrics().Counter("server.requests").Inc()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["server.requests"] != 1 {
		t.Fatalf("counters = %v", snap.Counters)
	}
	if _, ok := snap.Gauges["server.inflight"]; !ok {
		t.Fatal("gauges must include server.inflight")
	}
}

// TestWarmStoreAcrossServers is the restart contract: a server built
// over a warm store loads the state a previous server saved, so the
// second process serves from seeded caches instead of recomputing.
func TestWarmStoreAcrossServers(t *testing.T) {
	dir := t.TempDir()
	sess1 := engine.New(engine.Config{PrecharGrid: 5})
	srv1, err := New(Config{Session: sess1, WarmStoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cell, err := sess1.Lib().Cell("INVX1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess1.Table(context.Background(), cell, true); err != nil {
		t.Fatal(err)
	}
	if err := srv1.SaveWarm(); err != nil {
		t.Fatal(err)
	}

	sess2 := engine.New(engine.Config{PrecharGrid: 5})
	if _, err := New(Config{Session: sess2, WarmStoreDir: dir}); err != nil {
		t.Fatal(err)
	}
	if sess2.TableCount() != 1 {
		t.Fatalf("restarted server has %d tables resident, want 1", sess2.TableCount())
	}
	if hits := sess2.Metrics().Counter("store.hits").Value(); hits != 1 {
		t.Fatalf("store.hits = %d, want 1", hits)
	}

	// A server with a differently-configured session misses cleanly.
	sess3 := engine.New(engine.Config{PrecharGrid: 7})
	if _, err := New(Config{Session: sess3, WarmStoreDir: dir}); err != nil {
		t.Fatal(err)
	}
	if sess3.TableCount() != 0 {
		t.Fatal("a differently-configured session must not load foreign state")
	}
	if misses := sess3.Metrics().Counter("store.misses").Value(); misses != 1 {
		t.Fatalf("store.misses = %d, want 1", misses)
	}
}

// TestNetTimeoutDefaultAndOverride pins the per-net deadline a request
// runs under: the configured default bounds every request, with rescue
// on or off and whether or not the policy has a rescue rung, and a
// request's net_timeout replaces it.
func TestNetTimeoutDefaultAndOverride(t *testing.T) {
	ladder := resilience.DefaultPolicy()
	ladder.NetTimeout = 30 * time.Second
	for name, pol := range map[string]resilience.Policy{
		"deadline-only": {NetTimeout: 30 * time.Second},
		"ladder":        ladder,
	} {
		s, err := New(Config{Resilience: pol})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			query string
			want  time.Duration
		}{
			{"", 30 * time.Second},
			{"rescue=true", 30 * time.Second},
			{"rescue=false", 30 * time.Second},
			{"net_timeout=5s", 5 * time.Second},
			{"rescue=false&net_timeout=5s", 5 * time.Second},
		} {
			r := httptest.NewRequest(http.MethodPost, Analyze.Path+"?"+c.query, nil)
			opt, err := s.front.parseOptions(r, false)
			if err != nil {
				t.Fatalf("%s %q: %v", name, c.query, err)
			}
			tool, err := s.tool(opt)
			if err != nil {
				t.Fatalf("%s %q: %v", name, c.query, err)
			}
			if got := tool.Cfg.Resilience.NetTimeout; got != c.want {
				t.Errorf("%s %q: per-net deadline %v, want %v", name, c.query, got, c.want)
			}
		}
	}
}

// TestCompletedRequestResumesWithoutJournalOpen resubmits a request ID
// whose first attempt completed every net: the resubmission replays
// every record from the journal, which readPriorJournal reads once,
// and never opens the journal for append (nor repairs it), so its
// bytes stay as the first attempt left them. The replayed records
// equal the first attempt's, and the summary counts every net resumed.
func TestCompletedRequestResumesWithoutJournalOpen(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{JournalDir: dir})
	s.runBatch = instantBatch
	opens := 0
	orig := openJournal
	openJournal = func(path string, codec clarinet.JournalCodec) (*clarinet.Journal, func() error, error) {
		opens++
		return orig(path, codec)
	}
	t.Cleanup(func() { openJournal = orig })
	names, body := testBody(t, 3)
	post := func() ([]clarinet.JournalRecord, *Summary) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/analyze?request_id=done-1", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return readStream(t, resp.Body)
	}

	first, sum := post()
	if opens != 1 || len(first) != len(names) || sum == nil || sum.OK != len(names) || sum.Resumed != 0 {
		t.Fatalf("first attempt: %d opens, %d records, summary %+v", opens, len(first), sum)
	}
	path := filepath.Join(dir, "done-1.journal")
	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	again, sum := post()
	if opens != 1 {
		t.Fatalf("the resubmission opened the journal %d times, want none", opens-1)
	}
	if sum == nil || sum.Resumed != len(names) || sum.OK != len(names) {
		t.Fatalf("resubmission summary = %+v", sum)
	}
	if !reflect.DeepEqual(again, first) {
		t.Fatalf("resubmission records %+v, first attempt %+v", again, first)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, journal) {
		t.Fatalf("the resubmission changed the journal (%d bytes, was %d; err %v)", len(after), len(journal), err)
	}
}
