package noisegw

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clarinet"
	"repro/internal/colblob"
	"repro/internal/noised"
	"repro/internal/workload"
)

// fakeReplica is a scripted noised stand-in: it parses the shard body
// like a replica would, records what it was asked, and answers per the
// behave hook — which is what lets the tests stage sheds, mid-stream
// deaths, stalls, and duplicate records deterministically.
type fakeReplica struct {
	t  *testing.T
	ts *httptest.Server

	mu       sync.Mutex
	calls    int
	askedIDs []string   // request_id per call
	asked    [][]string // net names per call

	// behave handles call n (1-based). nil or returning false falls
	// through to serveAll.
	behave func(n int, w http.ResponseWriter, r *http.Request, file workload.FileJSON) bool
}

func newFakeReplica(t *testing.T) *fakeReplica {
	f := &fakeReplica{t: t}
	f.ts = httptest.NewServer(http.HandlerFunc(f.handle))
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakeReplica) handle(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/readyz" {
		fmt.Fprintln(w, "ok")
		return
	}
	var file workload.FileJSON
	if err := json.NewDecoder(r.Body).Decode(&file); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	names := make([]string, len(file.Cases))
	for i, c := range file.Cases {
		names[i] = c.Name
	}
	f.mu.Lock()
	f.calls++
	n := f.calls
	f.asked = append(f.asked, names)
	f.askedIDs = append(f.askedIDs, r.URL.Query().Get("request_id"))
	behave := f.behave
	f.mu.Unlock()
	if behave != nil && behave(n, w, r, file) {
		return
	}
	serveAll(w, file, nil)
}

func (f *fakeReplica) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// netsAsked returns the union of every net this replica was ever asked
// to analyze.
func (f *fakeReplica) netsAsked() map[string]bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := map[string]bool{}
	for _, names := range f.asked {
		for _, n := range names {
			out[n] = true
		}
	}
	return out
}

func successRecord(net string) clarinet.JournalRecord {
	return clarinet.JournalRecord{
		Net:     net,
		Quality: "clean",
		Result:  &clarinet.JournalResult{DelayNoise: 1e-12, Iterations: 1},
	}
}

func writeLine(w http.ResponseWriter, v any) {
	json.NewEncoder(w).Encode(v)
	if fl, ok := w.(http.Flusher); ok {
		fl.Flush()
	}
}

// serveAll streams a clean record per case and the terminal summary;
// skip suppresses nets (they count as canceled, like a replica drain).
func serveAll(w http.ResponseWriter, file workload.FileJSON, skip map[string]bool) {
	w.Header().Set("Content-Type", clarinet.ContentTypeNDJSON)
	sum := noised.Summary{Nets: len(file.Cases)}
	for _, c := range file.Cases {
		if skip[c.Name] {
			writeLine(w, noised.StreamLine{JournalRecord: clarinet.JournalRecord{
				Net: c.Name, Class: "canceled", Error: "analysis canceled: replica draining",
			}})
			sum.Canceled++
			continue
		}
		writeLine(w, noised.StreamLine{JournalRecord: successRecord(c.Name)})
		sum.OK++
	}
	writeLine(w, noised.StreamLine{Summary: &sum})
}

// newTestGateway builds a gateway over the fakes with fast test timings.
func newTestGateway(t *testing.T, mutate func(*Config), replicas ...*fakeReplica) (*Gateway, *httptest.Server) {
	t.Helper()
	cfg := Config{
		RetryAfter:   time.Second,
		StallTimeout: 5 * time.Second,
		ShedBackoff:  time.Millisecond,
		EjectBackoff: 10 * time.Millisecond,
	}
	for _, f := range replicas {
		cfg.Replicas = append(cfg.Replicas, f.ts.URL)
	}
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return g, ts
}

// testCases builds n structurally valid cases spread over enough cells
// and slew bands that every replica of a small fleet owns some buckets.
func testCases(n int) []workload.CaseJSON {
	cases := make([]workload.CaseJSON, n)
	for i := range cases {
		slew := 20e-12
		if i%2 == 1 {
			slew = 400e-12
		}
		cases[i] = caseFor(fmt.Sprintf("net%03d", i), fmt.Sprintf("CELL%d", i%11), slew)
	}
	return cases
}

func casesBody(t *testing.T, cases []workload.CaseJSON) []byte {
	t.Helper()
	b, err := json.Marshal(workload.FileJSON{Technology: "default-180nm", Cases: cases})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// postAnalyze runs one gateway request and decodes the NDJSON stream.
func postAnalyze(t *testing.T, url string, body []byte) ([]clarinet.JournalRecord, *noised.Summary) {
	t.Helper()
	resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %s: %s", resp.Status, b)
	}
	return readGatewayStream(t, resp.Body)
}

func readGatewayStream(t *testing.T, body io.Reader) ([]clarinet.JournalRecord, *noised.Summary) {
	t.Helper()
	var recs []clarinet.JournalRecord
	var sum *noised.Summary
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var sl noised.StreamLine
		if err := json.Unmarshal(sc.Bytes(), &sl); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch {
		case sl.Summary != nil:
			sum = sl.Summary
		case sl.Net != "":
			recs = append(recs, sl.JournalRecord)
		case sl.Heartbeat:
		default:
			t.Fatalf("unclassifiable stream line %q", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs, sum
}

// requireExactlyOnce asserts the merged stream finalized every expected
// net exactly once.
func requireExactlyOnce(t *testing.T, recs []clarinet.JournalRecord, cases []workload.CaseJSON) {
	t.Helper()
	seen := map[string]int{}
	for _, r := range recs {
		seen[r.Net]++
	}
	for _, c := range cases {
		if seen[c.Name] != 1 {
			t.Fatalf("net %s finalized %d times", c.Name, seen[c.Name])
		}
	}
	if len(recs) != len(cases) {
		t.Fatalf("merged %d records for %d nets", len(recs), len(cases))
	}
}

// TestGatewayMergeAllShards is the happy path: three replicas, disjoint
// shards, every net exactly once, and derived per-shard journal IDs on
// the sub-requests.
func TestGatewayMergeAllShards(t *testing.T) {
	a, b, c := newFakeReplica(t), newFakeReplica(t), newFakeReplica(t)
	_, ts := newTestGateway(t, nil, a, b, c)
	cases := testCases(40)

	resp, err := http.Post(ts.URL+"/v1/analyze?request_id=merge-test", "application/json",
		bytes.NewReader(casesBody(t, cases)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	recs, sum := readGatewayStream(t, resp.Body)
	requireExactlyOnce(t, recs, cases)
	if sum == nil || sum.Nets != 40 || sum.OK != 40 || sum.Failed != 0 || sum.Canceled != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.RequestID != "merge-test" {
		t.Fatalf("summary request_id = %q", sum.RequestID)
	}

	// The shards must partition the nets: disjoint, and together complete.
	union := map[string]int{}
	served := 0
	subID := regexp.MustCompile(`^merge-test-s[0-9a-f]{8}$`)
	for _, f := range []*fakeReplica{a, b, c} {
		if f.callCount() == 0 {
			continue
		}
		served++
		for n := range f.netsAsked() {
			union[n]++
		}
		f.mu.Lock()
		for _, id := range f.askedIDs {
			if !subID.MatchString(id) {
				t.Errorf("sub-request id %q does not derive from the client id", id)
			}
		}
		f.mu.Unlock()
	}
	if served < 2 {
		t.Fatalf("only %d replicas served shards; sharding collapsed", served)
	}
	for _, c := range cases {
		if union[c.Name] != 1 {
			t.Fatalf("net %s assigned to %d replicas", c.Name, union[c.Name])
		}
	}
}

// TestGatewayReplicaDeathReshard is the headline failure path: a
// replica dies mid-stream after a few records; the gateway detects the
// torn stream, strikes the replica, reshards the unfinished nets onto
// the survivors, and still delivers every net exactly once.
func TestGatewayReplicaDeathReshard(t *testing.T) {
	a, b, c := newFakeReplica(t), newFakeReplica(t), newFakeReplica(t)
	a.behave = func(n int, w http.ResponseWriter, r *http.Request, file workload.FileJSON) bool {
		if n > 1 {
			return false // healed after the first death
		}
		w.Header().Set("Content-Type", clarinet.ContentTypeNDJSON)
		for _, c := range file.Cases[:min(2, len(file.Cases))] {
			writeLine(w, noised.StreamLine{JournalRecord: successRecord(c.Name)})
		}
		panic(http.ErrAbortHandler) // the process is gone mid-stream
	}
	g, ts := newTestGateway(t, nil, a, b, c)
	cases := testCases(40)

	recs, sum := postAnalyze(t, ts.URL, casesBody(t, cases))
	requireExactlyOnce(t, recs, cases)
	if sum == nil || sum.OK != 40 || sum.Failed != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	snap := g.reg.Snapshot()
	if snap.Counters[mGwReshards] < 1 {
		t.Fatalf("reshards = %d, want >= 1", snap.Counters[mGwReshards])
	}
	if snap.Counters[mGwShardTorn] < 1 {
		t.Fatalf("torn streams = %d, want >= 1", snap.Counters[mGwShardTorn])
	}
	if a.callCount() != 1 {
		t.Fatalf("dead replica was retried %d times; reshard must avoid it", a.callCount())
	}
}

// TestGatewayShedBackoff: a 503 from a replica is backpressure, not
// failure — the gateway retries the same replica after the hinted
// backoff and the replica keeps its health.
func TestGatewayShedBackoff(t *testing.T) {
	restore := shedJitter
	shedJitter = func() float64 { return 0.5 } // jitter factor 1.0
	defer func() { shedJitter = restore }()

	a := newFakeReplica(t)
	a.behave = func(n int, w http.ResponseWriter, r *http.Request, file workload.FileJSON) bool {
		if n <= 2 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "saturated", http.StatusServiceUnavailable)
			return true
		}
		return false
	}
	g, ts := newTestGateway(t, nil, a)
	cases := testCases(12)

	recs, sum := postAnalyze(t, ts.URL, casesBody(t, cases))
	requireExactlyOnce(t, recs, cases)
	if sum.OK != 12 {
		t.Fatalf("summary = %+v", sum)
	}
	snap := g.reg.Snapshot()
	if snap.Counters[mGwShardShed] != 2 {
		t.Fatalf("sheds = %d, want 2", snap.Counters[mGwShardShed])
	}
	if snap.Counters[mGwReplicaEjections] != 0 {
		t.Fatalf("shed must not eject; ejections = %d", snap.Counters[mGwReplicaEjections])
	}
	if a.callCount() != 3 {
		t.Fatalf("calls = %d, want 3 (two sheds, one serve)", a.callCount())
	}
}

// TestGatewayShedExhaustedMovesOn: a replica that sheds past the retry
// budget is saturated — the shard reshards elsewhere without striking
// it.
func TestGatewayShedExhaustedMovesOn(t *testing.T) {
	restore := shedJitter
	shedJitter = func() float64 { return 0 } // half the base, fastest
	defer func() { shedJitter = restore }()

	a, b := newFakeReplica(t), newFakeReplica(t)
	a.behave = func(n int, w http.ResponseWriter, r *http.Request, file workload.FileJSON) bool {
		w.Header().Set("Retry-After", "0")
		http.Error(w, "saturated", http.StatusServiceUnavailable)
		return true
	}
	g, ts := newTestGateway(t, func(cfg *Config) { cfg.ShedRetries = 1 }, a, b)
	cases := testCases(24)

	recs, sum := postAnalyze(t, ts.URL, casesBody(t, cases))
	requireExactlyOnce(t, recs, cases)
	if sum.OK != 24 {
		t.Fatalf("summary = %+v", sum)
	}
	snap := g.reg.Snapshot()
	if a.callCount() > 0 && snap.Counters[mGwReshards] < 1 {
		t.Fatalf("reshards = %d, want >= 1 after shed exhaustion", snap.Counters[mGwReshards])
	}
	if snap.Counters[mGwReplicaEjections] != 0 {
		t.Fatalf("saturation must not eject; ejections = %d", snap.Counters[mGwReplicaEjections])
	}
}

// TestGatewayExactlyOnceDuplicates: journal replays (a replica
// re-sending records it already finished) drop at the merge.
func TestGatewayExactlyOnceDuplicates(t *testing.T) {
	a := newFakeReplica(t)
	a.behave = func(n int, w http.ResponseWriter, r *http.Request, file workload.FileJSON) bool {
		w.Header().Set("Content-Type", clarinet.ContentTypeNDJSON)
		sum := noised.Summary{Nets: len(file.Cases)}
		for _, c := range file.Cases {
			writeLine(w, noised.StreamLine{JournalRecord: successRecord(c.Name)})
			writeLine(w, noised.StreamLine{JournalRecord: successRecord(c.Name)}) // replay
			sum.OK++
		}
		writeLine(w, noised.StreamLine{Summary: &sum})
		return true
	}
	g, ts := newTestGateway(t, nil, a)
	cases := testCases(10)

	recs, sum := postAnalyze(t, ts.URL, casesBody(t, cases))
	requireExactlyOnce(t, recs, cases)
	if sum.OK != 10 {
		t.Fatalf("summary = %+v", sum)
	}
	if dup := g.reg.Snapshot().Counters[mGwNetsDuplicate]; dup != 10 {
		t.Fatalf("duplicates dropped = %d, want 10", dup)
	}
}

// TestGatewayCanceledNeverFinalizes: canceled placeholders from a
// draining replica leave their nets eligible, and the reshard completes
// them — the client never sees a canceled record for a net another
// replica could finish.
func TestGatewayCanceledNeverFinalizes(t *testing.T) {
	a := newFakeReplica(t)
	a.behave = func(n int, w http.ResponseWriter, r *http.Request, file workload.FileJSON) bool {
		if n > 1 {
			return false
		}
		skip := map[string]bool{}
		for _, c := range file.Cases[min(2, len(file.Cases)):] {
			skip[c.Name] = true // drained mid-batch: canceled placeholders
		}
		serveAll(w, file, skip)
		return true
	}
	g, ts := newTestGateway(t, nil, a)
	cases := testCases(12)

	recs, sum := postAnalyze(t, ts.URL, casesBody(t, cases))
	requireExactlyOnce(t, recs, cases)
	for _, r := range recs {
		if r.Class == "canceled" {
			t.Fatalf("canceled record leaked to the client: %+v", r)
		}
	}
	if sum.OK != 12 || sum.Canceled != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if n := g.reg.Snapshot().Counters[mGwReshards]; n < 1 {
		t.Fatalf("reshards = %d, want >= 1", n)
	}
}

// TestGatewayStallDetection: a stream that goes silent past
// StallTimeout is cut, the replica struck, and the work resharded.
func TestGatewayStallDetection(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	a.behave = func(n int, w http.ResponseWriter, r *http.Request, file workload.FileJSON) bool {
		if n > 1 {
			return false
		}
		w.Header().Set("Content-Type", clarinet.ContentTypeNDJSON)
		writeLine(w, noised.StreamLine{JournalRecord: successRecord(file.Cases[0].Name)})
		select { // silence, not progress — until the gateway hangs up
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
		return true
	}
	g, ts := newTestGateway(t, func(cfg *Config) { cfg.StallTimeout = 80 * time.Millisecond }, a, b)
	cases := testCases(20)

	recs, sum := postAnalyze(t, ts.URL, casesBody(t, cases))
	requireExactlyOnce(t, recs, cases)
	if sum.OK != 20 {
		t.Fatalf("summary = %+v", sum)
	}
	snap := g.reg.Snapshot()
	if a.callCount() > 0 && snap.Counters[mGwShardStalled] < 1 {
		t.Fatalf("stalls = %d, want >= 1", snap.Counters[mGwShardStalled])
	}
}

// TestGatewayWatchdogHonorsAdvertisedHeartbeat: a replica that
// advertises a 1 s heartbeat and keeps it is never cut, even though each
// of its silences is five times the gateway's StallTimeout — the
// watchdog waits three advertised intervals.
func TestGatewayWatchdogHonorsAdvertisedHeartbeat(t *testing.T) {
	a := newFakeReplica(t)
	a.behave = func(n int, w http.ResponseWriter, r *http.Request, file workload.FileJSON) bool {
		w.Header().Set(noised.HeartbeatHeader, "1s")
		w.Header().Set("Content-Type", clarinet.ContentTypeNDJSON)
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		for i := 0; i < 2; i++ {
			select {
			case <-r.Context().Done():
				return true
			case <-time.After(time.Second):
			}
			writeLine(w, noised.StreamLine{Heartbeat: true})
		}
		serveAll(w, file, nil)
		return true
	}
	g, ts := newTestGateway(t, func(cfg *Config) { cfg.StallTimeout = 200 * time.Millisecond }, a)
	cases := testCases(6)

	recs, sum := postAnalyze(t, ts.URL, casesBody(t, cases))
	requireExactlyOnce(t, recs, cases)
	if sum.OK != 6 {
		t.Fatalf("summary = %+v", sum)
	}
	if n := g.reg.Snapshot().Counters[mGwShardStalled]; n != 0 {
		t.Fatalf("stalls = %d, want 0: a replica keeping its advertised heartbeat was cut", n)
	}
	if a.callCount() != 1 {
		t.Fatalf("calls = %d, want 1", a.callCount())
	}
}

// TestGatewayWatchdogCutsSilentReplica: a replica that advertises a 1 s
// heartbeat and then goes silent is cut after three intervals — not at
// the 200 ms StallTimeout, and not never.
func TestGatewayWatchdogCutsSilentReplica(t *testing.T) {
	cut := make(chan time.Duration, 1)
	a := newFakeReplica(t)
	a.behave = func(n int, w http.ResponseWriter, r *http.Request, file workload.FileJSON) bool {
		w.Header().Set(noised.HeartbeatHeader, "1s")
		w.Header().Set("Content-Type", clarinet.ContentTypeNDJSON)
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		opened := time.Now()
		select {
		case <-r.Context().Done():
			cut <- time.Since(opened)
		case <-time.After(10 * time.Second):
			cut <- -1
		}
		return true
	}
	g, ts := newTestGateway(t, func(cfg *Config) { cfg.StallTimeout = 200 * time.Millisecond }, a)

	_, sum := postAnalyze(t, ts.URL, casesBody(t, testCases(3)))
	if sum == nil || sum.Failed != 3 {
		t.Fatalf("summary = %+v, want 3 failed (no replica left to reshard onto)", sum)
	}
	if d := <-cut; d < 2900*time.Millisecond || d > 6*time.Second {
		t.Fatalf("silent stream cut after %v, want about 3s (3 x the advertised 1s)", d)
	}
	if n := g.reg.Snapshot().Counters[mGwShardStalled]; n != 1 {
		t.Fatalf("stalls = %d, want 1", n)
	}
}

// TestGatewayColblob: an Accept for the binary wire gets colblob frames
// carrying the same merged records.
func TestGatewayColblob(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	_, ts := newTestGateway(t, nil, a, b)
	cases := testCases(16)

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze", bytes.NewReader(casesBody(t, cases)))
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
	if ct := resp.Header.Get("Content-Type"); ct != clarinet.ContentTypeColblob {
		t.Fatalf("content type = %q", ct)
	}
	fr := colblob.NewFrameReader(resp.Body)
	var dec clarinet.BinaryRecordDecoder
	var recs []clarinet.JournalRecord
	var sum *noised.Summary
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
			rec, err := dec.Decode(payload)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec)
		case colblob.FrameSummary:
			sum = &noised.Summary{}
			if err := json.Unmarshal(payload, sum); err != nil {
				t.Fatal(err)
			}
		case colblob.FrameHeartbeat:
		}
	}
	requireExactlyOnce(t, recs, cases)
	if sum == nil || sum.OK != 16 {
		t.Fatalf("summary = %+v", sum)
	}
}

// TestGatewayTimeoutReportsCanceled: when the request deadline cuts the
// run short, the unfinished nets come back as canceled records and the
// summary carries the deadline retry hint.
func TestGatewayTimeoutReportsCanceled(t *testing.T) {
	a := newFakeReplica(t)
	a.behave = func(n int, w http.ResponseWriter, r *http.Request, file workload.FileJSON) bool {
		w.Header().Set("Content-Type", clarinet.ContentTypeNDJSON)
		writeLine(w, noised.StreamLine{JournalRecord: successRecord(file.Cases[0].Name)})
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
		return true
	}
	_, ts := newTestGateway(t, nil, a)
	cases := testCases(6)

	resp, err := http.Post(ts.URL+"/v1/analyze?timeout=150ms", "application/json",
		bytes.NewReader(casesBody(t, cases)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	recs, sum := readGatewayStream(t, resp.Body)
	if len(recs) != 6 {
		t.Fatalf("got %d records, want 6 (1 ok + 5 canceled)", len(recs))
	}
	canceled := 0
	for _, r := range recs {
		if r.Class == "canceled" {
			canceled++
		}
	}
	if canceled != 5 {
		t.Fatalf("canceled records = %d, want 5", canceled)
	}
	if sum == nil || sum.OK != 1 || sum.Canceled != 5 || !sum.Deadline {
		t.Fatalf("summary = %+v", sum)
	}
}

// TestGatewayNoHealthyReplicas: an empty fleet sheds with 503 and a
// Retry-After hint rather than queueing doomed work.
func TestGatewayNoHealthyReplicas(t *testing.T) {
	a := newFakeReplica(t)
	g, ts := newTestGateway(t, nil, a)
	for i := 0; i < DefaultMaxStrikes; i++ {
		g.set.strike(a.ts.URL)
	}
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
		bytes.NewReader(casesBody(t, testCases(4))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %s, want 503", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("no Retry-After hint on the shed")
	}
	if n := g.reg.Snapshot().Counters[mGwRejectedNoReplicas]; n != 1 {
		t.Fatalf("rejected.no_replicas = %d, want 1", n)
	}

	// readyz must agree that the gateway cannot serve.
	rz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %s, want 503", rz.Status)
	}
}

// TestGatewayRefusedUnitFails: a replica that refuses even one net as
// too large (413) splits the shard down to single nets, and each one it
// still refuses fails with the replica's message. The refusal is no
// replica failure: no strike, no reshard, no ejection.
func TestGatewayRefusedUnitFails(t *testing.T) {
	a := newFakeReplica(t)
	a.behave = func(n int, w http.ResponseWriter, r *http.Request, file workload.FileJSON) bool {
		http.Error(w, "noised: request too large", http.StatusRequestEntityTooLarge)
		return true
	}
	g, ts := newTestGateway(t, nil, a)
	cases := testCases(2)
	recs, sum := postAnalyze(t, ts.URL, casesBody(t, cases))
	requireExactlyOnce(t, recs, cases)
	if sum == nil || sum.Failed != 2 {
		t.Fatalf("summary = %+v, want both nets failed", sum)
	}
	for _, rec := range recs {
		if rec.Class != "invalid-case" || !strings.Contains(rec.Error, "noised: request too large") {
			t.Fatalf("record %+v: want an invalid-case failure with the replica's message", rec)
		}
	}
	if a.callCount() != 3 {
		t.Fatalf("replica called %d times, want the shard and its two halves", a.callCount())
	}
	snap := g.reg.Snapshot()
	if snap.Counters[mGwShardSplit] != 1 || snap.Counters[mGwReshards] != 0 || snap.Counters[mGwReplicaEjections] != 0 {
		t.Fatalf("splits %d, reshards %d, ejections %d; want 1, 0, 0",
			snap.Counters[mGwShardSplit], snap.Counters[mGwReshards], snap.Counters[mGwReplicaEjections])
	}
	if got := g.set.health(); len(got) != 1 || got[0].Strikes != 0 {
		t.Fatalf("replica health %+v, want no strike", got)
	}
}

// TestGatewayRefusedUnitMovesReplica: replicas may differ in their
// limits. A net one replica refuses even alone reshards to another that
// takes it, with no strike and no ejection; a net every replica refuses
// fails with a replica's message once its reshard hops are spent.
func TestGatewayRefusedUnitMovesReplica(t *testing.T) {
	refuseAll := func(n int, w http.ResponseWriter, r *http.Request, file workload.FileJSON) bool {
		http.Error(w, "noised: request too large", http.StatusRequestEntityTooLarge)
		return true
	}
	t.Run("another replica takes it", func(t *testing.T) {
		small, big := newFakeReplica(t), newFakeReplica(t)
		g, ts := newTestGateway(t, nil, small, big)
		cases := testCases(6)
		// The ring hashes the replicas' URLs, whose ports are random: the
		// refusing replica is the one it gives the first case, so that
		// replica is asked at least once.
		if newRing(g.cfg.Replicas).owner(bucketKey(cases[0])) != small.ts.URL {
			small, big = big, small
		}
		small.mu.Lock()
		small.behave = refuseAll
		small.mu.Unlock()
		recs, sum := postAnalyze(t, ts.URL, casesBody(t, cases))
		requireExactlyOnce(t, recs, cases)
		if sum == nil || sum.OK != len(cases) {
			t.Fatalf("summary = %+v, want every net answered", sum)
		}
		if small.callCount() == 0 || len(big.netsAsked()) != len(cases) {
			t.Fatalf("refusing replica called %d times, the other asked %d of %d nets",
				small.callCount(), len(big.netsAsked()), len(cases))
		}
		snap := g.reg.Snapshot()
		if snap.Counters[mGwReshards] < 1 || snap.Counters[mGwReplicaEjections] != 0 {
			t.Fatalf("reshards %d, ejections %d; want a reshard and no ejection",
				snap.Counters[mGwReshards], snap.Counters[mGwReplicaEjections])
		}
		for _, h := range g.set.health() {
			if h.Strikes != 0 {
				t.Fatalf("replica health %+v, want no strike", h)
			}
		}
	})
	t.Run("every replica refuses", func(t *testing.T) {
		a, b := newFakeReplica(t), newFakeReplica(t)
		a.behave, b.behave = refuseAll, refuseAll
		g, ts := newTestGateway(t, func(cfg *Config) { cfg.MaxReshards = 2 }, a, b)
		cases := testCases(1)
		recs, sum := postAnalyze(t, ts.URL, casesBody(t, cases))
		requireExactlyOnce(t, recs, cases)
		if sum == nil || sum.Failed != 1 || recs[0].Class != "invalid-case" || !strings.Contains(recs[0].Error, "noised: request too large") {
			t.Fatalf("summary %+v, records %+v: want an invalid-case failure with the replica's message", sum, recs)
		}
		if calls := a.callCount() + b.callCount(); calls != 3 {
			t.Fatalf("replicas called %d times, want the first try and its two hops", calls)
		}
		if snap := g.reg.Snapshot(); snap.Counters[mGwReshards] != 2 || snap.Counters[mGwReplicaEjections] != 0 {
			t.Fatalf("reshards %d, ejections %d; want 2 and 0",
				snap.Counters[mGwReshards], snap.Counters[mGwReplicaEjections])
		}
	})
}

// TestGatewayValidation: requests every replica would reject fail fast
// at the gateway with 400/413.
func TestGatewayValidation(t *testing.T) {
	a := newFakeReplica(t)
	_, ts := newTestGateway(t, func(cfg *Config) { cfg.MaxNets = 8 }, a)
	good := casesBody(t, testCases(4))

	post := func(path string, body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post("/v1/analyze?hold=nope", good); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad hold: status = %s", resp.Status)
	}
	if resp := post("/v1/analyze?timeout=-3s", good); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad timeout: status = %s", resp.Status)
	}
	if resp := post("/v1/analyze?request_id=no/slashes", good); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad request_id: status = %s", resp.Status)
	}
	if resp := post("/v1/analyze", casesBody(t, nil)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty cases: status = %s", resp.Status)
	}
	dup := testCases(2)
	dup[1].Name = dup[0].Name
	if resp := post("/v1/analyze", casesBody(t, dup)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate nets: status = %s", resp.Status)
	}
	if resp := post("/v1/analyze", casesBody(t, testCases(9))); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over MaxNets: status = %s", resp.Status)
	}
	if a.callCount() != 0 {
		t.Fatalf("invalid requests reached a replica %d times", a.callCount())
	}
}

// TestGatewayHealthz: the health payload carries per-replica rows and a
// status that degrades with the fleet.
func TestGatewayHealthz(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	g, ts := newTestGateway(t, nil, a, b)

	get := func() Health {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	h := get()
	if h.Status != "ok" || h.ReplicasHealthy != 2 || len(h.Replicas) != 2 {
		t.Fatalf("health = %+v", h)
	}
	if h.Instance == "" || h.Instance != g.instance {
		t.Fatalf("instance = %q, want %q", h.Instance, g.instance)
	}
	for i := 0; i < DefaultMaxStrikes; i++ {
		g.set.strike(a.ts.URL)
	}
	if h := get(); h.Status != "degraded" || h.ReplicasHealthy != 1 {
		t.Fatalf("after ejection health = %+v", h)
	}
	g.front.Gate.Drain()
	if h := get(); h.Status != "draining" || !h.Draining {
		t.Fatalf("draining health = %+v", h)
	}
}

// TestProbeEjectRejoinRestart drives the replica state machine through
// its full cycle: probe failures eject, a recovered replica rejoins
// after its window, and a changed instance identity counts a restart.
func TestProbeEjectRejoinRestart(t *testing.T) {
	var healthy, instance sync.Map
	healthy.Store("up", true)
	instance.Store("id", "first-boot")
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := instance.Load("id")
		w.Header().Set(noised.InstanceHeader, id.(string))
		if up, _ := healthy.Load("up"); !up.(bool) {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	}))
	t.Cleanup(replica.Close)

	g, err := New(Config{
		Replicas:     []string{replica.URL},
		MaxStrikes:   2,
		EjectBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()

	g.set.probeOnce(ctx) // healthy: learns the instance
	if rows := g.set.health(); !rows[0].Healthy || rows[0].Instance != "first-boot" {
		t.Fatalf("initial health = %+v", rows[0])
	}

	healthy.Store("up", false)
	g.set.probeOnce(ctx)
	g.set.probeOnce(ctx)
	if rows := g.set.health(); rows[0].Healthy {
		t.Fatalf("still healthy after %d failed probes", 2)
	}
	if n := g.reg.Snapshot().Counters[mGwReplicaEjections]; n != 1 {
		t.Fatalf("ejections = %d, want 1", n)
	}

	// Inside the window the replica is left alone; past it, a clean
	// probe rejoins with a fresh instance — counted as a restart.
	healthy.Store("up", true)
	instance.Store("id", "second-boot")
	time.Sleep(10 * time.Millisecond)
	g.set.probeOnce(ctx)
	rows := g.set.health()
	if !rows[0].Healthy || rows[0].Instance != "second-boot" {
		t.Fatalf("after rejoin health = %+v", rows[0])
	}
	snap := g.reg.Snapshot()
	if snap.Counters[mGwReplicaRejoins] != 1 || snap.Counters[mGwReplicaRestarts] != 1 {
		t.Fatalf("rejoins = %d restarts = %d, want 1 and 1",
			snap.Counters[mGwReplicaRejoins], snap.Counters[mGwReplicaRestarts])
	}
}

// TestGatewayDraining: a draining gateway refuses new work on both the
// analyze and readiness surfaces.
func TestGatewayDraining(t *testing.T) {
	a := newFakeReplica(t)
	g, ts := newTestGateway(t, nil, a)
	g.front.Gate.Drain()
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
		bytes.NewReader(casesBody(t, testCases(4))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %s, want 503", resp.Status)
	}
	if !strings.Contains(resp.Header.Get("Retry-After"), "1") {
		t.Fatalf("Retry-After = %q", resp.Header.Get("Retry-After"))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
