package noisegw

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/noised"
	"repro/internal/pathnoise"
	"repro/internal/workload"
)

// fakePathReplica is a scripted analyze-path noised stand-in: it parses
// the path shard body, records which paths it was asked, and answers
// per the behave hook.
type fakePathReplica struct {
	t  *testing.T
	ts *httptest.Server

	mu       sync.Mutex
	calls    int
	askedIDs []string
	asked    [][]string // path names per call

	behave func(n int, w http.ResponseWriter, r *http.Request, file workload.FileJSON) bool
}

func newFakePathReplica(t *testing.T) *fakePathReplica {
	f := &fakePathReplica{t: t}
	f.ts = httptest.NewServer(http.HandlerFunc(f.handle))
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakePathReplica) handle(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/readyz" {
		fmt.Fprintln(w, "ok")
		return
	}
	if r.URL.Path != "/v1/analyze-path" {
		http.Error(w, "unexpected path "+r.URL.Path, http.StatusNotFound)
		return
	}
	var file workload.FileJSON
	if err := json.NewDecoder(r.Body).Decode(&file); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	names := make([]string, len(file.Paths))
	for i, p := range file.Paths {
		names[i] = p.Name
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
	servePathsAll(w, file, nil)
}

func (f *fakePathReplica) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// pathsAsked returns the union of every path this replica was asked to
// analyze, and the per-call slices for atomicity checks.
func (f *fakePathReplica) pathsAsked() (map[string]bool, [][]string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := map[string]bool{}
	for _, names := range f.asked {
		for _, n := range names {
			out[n] = true
		}
	}
	return out, append([][]string(nil), f.asked...)
}

func stageRecord(path string, stage int, net string, done bool) pathnoise.StageRecord {
	return pathnoise.StageRecord{
		Path: path, Stage: stage, Net: net, Final: done, Done: done,
		Quality: "clean",
		Result: &pathnoise.StageResult{
			NoisyArr: float64(stage+1) * 1e-12, Cumulative: float64(stage+1) * 1e-13, Iterations: 1,
		},
	}
}

func pathReportFor(p workload.PathJSON) *pathnoise.PathReport {
	return &pathnoise.PathReport{
		Name: p.Name, Quality: "clean", Iterations: 1,
		PathDelayNoise: float64(len(p.Stages)) * 1e-13,
	}
}

// servePathsAll streams every stage record and a summary carrying a
// clean report per path; skip marks paths to cut off as canceled (no
// Done record, a "canceled" report) the way a draining replica would.
func servePathsAll(w http.ResponseWriter, file workload.FileJSON, skip map[string]bool) {
	sum := noised.PathSummary{Paths: len(file.Paths)}
	for _, p := range file.Paths {
		if skip[p.Name] {
			sum.Canceled++
			sum.Reports = append(sum.Reports, &pathnoise.PathReport{
				Name: p.Name, Class: "canceled", Error: "noised: path canceled: replica draining",
			})
			continue
		}
		for s, net := range p.Stages {
			writeLine(w, stageRecord(p.Name, s, net, s == len(p.Stages)-1))
		}
		sum.OK++
		sum.Reports = append(sum.Reports, pathReportFor(p))
	}
	writeLine(w, noised.PathStreamLine{Summary: &sum})
}

// pathFile builds n paths of the given stage count with enough cell
// variety that a small fleet shards them across replicas.
func pathFile(n, stages int) workload.FileJSON {
	f := workload.FileJSON{Technology: "default-180nm"}
	for i := 0; i < n; i++ {
		p := workload.PathJSON{Name: fmt.Sprintf("p%02d", i)}
		for s := 0; s < stages; s++ {
			name := fmt.Sprintf("p%02d.s%d", i, s)
			f.Cases = append(f.Cases, caseFor(name, fmt.Sprintf("CELL%d", (i+s)%7), 50e-12))
			p.Stages = append(p.Stages, name)
		}
		f.Paths = append(f.Paths, p)
	}
	return f
}

func pathBody(t *testing.T, file workload.FileJSON) []byte {
	t.Helper()
	b, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// postAnalyzePath runs one gateway path request and decodes the stream.
func postAnalyzePath(t *testing.T, url string, body []byte) ([]pathnoise.StageRecord, *noised.PathSummary) {
	t.Helper()
	resp, err := http.Post(url+"/v1/analyze-path", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %s: %s", resp.Status, b)
	}
	var recs []pathnoise.StageRecord
	var sum *noised.PathSummary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 256*1024), 16<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var sl noised.PathStreamLine
		if err := json.Unmarshal(sc.Bytes(), &sl); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch {
		case sl.Summary != nil:
			sum = sl.Summary
		case sl.Path != "":
			recs = append(recs, sl.StageRecord)
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

func newPathGateway(t *testing.T, mutate func(*Config), replicas ...*fakePathReplica) (*Gateway, *httptest.Server) {
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

// TestGatewayPathMerge is the happy path: three replicas, every path
// pinned whole to exactly one replica, every stage record merged
// exactly once, reports in client path order.
func TestGatewayPathMerge(t *testing.T) {
	a, b, c := newFakePathReplica(t), newFakePathReplica(t), newFakePathReplica(t)
	_, ts := newPathGateway(t, nil, a, b, c)
	file := pathFile(12, 3)

	recs, sum := postAnalyzePath(t, ts.URL, pathBody(t, file))
	if sum == nil || sum.Paths != 12 || sum.OK != 12 || sum.Failed != 0 || sum.Canceled != 0 {
		t.Fatalf("summary %+v", sum)
	}
	seen := map[pathnoise.StageKey]int{}
	for _, r := range recs {
		seen[r.Key()]++
	}
	if len(recs) != 12*3 {
		t.Fatalf("merged %d stage records, want %d", len(recs), 12*3)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("stage %+v merged %d times", k, n)
		}
	}
	if len(sum.Reports) != 12 {
		t.Fatalf("%d reports", len(sum.Reports))
	}
	for i, rep := range sum.Reports {
		if rep.Name != file.Paths[i].Name {
			t.Fatalf("report %d is %s, want client order %s", i, rep.Name, file.Paths[i].Name)
		}
	}

	// Whole-path pinning: no path may be split across replicas, and
	// every stage of a path must ride in the same sub-request body.
	owners := map[string]int{}
	for i, f := range []*fakePathReplica{a, b, c} {
		asked, _ := f.pathsAsked()
		for p := range asked {
			if prev, ok := owners[p]; ok {
				t.Fatalf("path %s asked of replicas %d and %d", p, prev, i)
			}
			owners[p] = i
		}
	}
	if len(owners) != 12 {
		t.Fatalf("%d paths assigned, want 12", len(owners))
	}
}

// TestGatewayPathReplicaDeathReshard kills one replica mid-stream: the
// paths it left without a Done record must reshard onto the survivor
// and finish, with the already-merged stage records not re-emitted to
// the client.
func TestGatewayPathReplicaDeathReshard(t *testing.T) {
	healthy := newFakePathReplica(t)
	dying := newFakePathReplica(t)
	dying.behave = func(n int, w http.ResponseWriter, r *http.Request, file workload.FileJSON) bool {
		// Emit the first stage of the first path, then die without a
		// summary — a torn stream.
		p := file.Paths[0]
		writeLine(w, stageRecord(p.Name, 0, p.Stages[0], false))
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		panic(http.ErrAbortHandler)
	}
	_, ts := newPathGateway(t, func(c *Config) { c.MaxStrikes = 1 }, healthy, dying)
	file := pathFile(16, 2)

	recs, sum := postAnalyzePath(t, ts.URL, pathBody(t, file))
	if sum.OK != 16 || sum.Failed != 0 {
		t.Fatalf("summary %+v", sum)
	}
	// Every (path, stage) exactly once: the re-run of the torn path's
	// stage 0 deduplicates against the pre-death record.
	seen := map[pathnoise.StageKey]int{}
	for _, r := range recs {
		seen[r.Key()]++
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("stage %+v merged %d times", k, n)
		}
	}
	if len(recs) != 16*2 {
		t.Fatalf("merged %d stage records, want %d", len(recs), 16*2)
	}
	if healthy.callCount() < 2 {
		t.Fatal("survivor never received the reshard")
	}
}

// TestGatewayPathCanceledNeverFinalizes: a replica that cuts a path off
// as canceled (drain) must not finalize it — the reshard completes it.
func TestGatewayPathCanceledNeverFinalizes(t *testing.T) {
	var mu sync.Mutex
	drained := 0
	f := newFakePathReplica(t)
	f.behave = func(n int, w http.ResponseWriter, r *http.Request, file workload.FileJSON) bool {
		mu.Lock()
		first := drained == 0
		drained++
		mu.Unlock()
		if first {
			// Cut off every path in this shard, drain-style.
			skip := map[string]bool{}
			for _, p := range file.Paths {
				skip[p.Name] = true
			}
			servePathsAll(w, file, skip)
			return true
		}
		return false
	}
	_, ts := newPathGateway(t, nil, f)
	file := pathFile(3, 2)

	recs, sum := postAnalyzePath(t, ts.URL, pathBody(t, file))
	if sum.OK != 3 || sum.Canceled != 0 || sum.Failed != 0 {
		t.Fatalf("summary %+v", sum)
	}
	if len(recs) != 3*2 {
		t.Fatalf("merged %d stage records, want %d", len(recs), 3*2)
	}
	if f.callCount() < 2 {
		t.Fatal("canceled paths were never retried")
	}
}

// TestGatewayPathSubRequestIDs: path shards derive "-p" journal IDs
// from the client's request_id, disjoint from the net dispatcher's "-s"
// family.
func TestGatewayPathSubRequestIDs(t *testing.T) {
	f := newFakePathReplica(t)
	_, ts := newPathGateway(t, nil, f)
	file := pathFile(2, 2)

	resp, err := http.Post(ts.URL+"/v1/analyze-path?request_id=job7", "application/json",
		bytes.NewReader(pathBody(t, file)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.askedIDs) == 0 {
		t.Fatal("no sub-requests")
	}
	for _, id := range f.askedIDs {
		if !noised.ValidRequestID(id) || len(id) != len("job7-p")+8 || id[:6] != "job7-p" {
			t.Fatalf("sub-request id %q not in the job7-p%%08x family", id)
		}
	}
}

// TestGatewayPathValidation covers the 400s the gateway enforces
// without a device library: the structural ones, and the path knobs,
// which it checks with the replicas' own parser — a request every
// replica would refuse must not reach (or strike) one.
func TestGatewayPathValidation(t *testing.T) {
	f := newFakePathReplica(t)
	g, ts := newPathGateway(t, nil, f)

	noPaths := pathFile(1, 2)
	noPaths.Paths = nil
	unknownStage := pathFile(1, 2)
	unknownStage.Paths[0].Stages = append(unknownStage.Paths[0].Stages, "ghost")
	dupPath := pathFile(2, 2)
	dupPath.Paths[1].Name = dupPath.Paths[0].Name

	cases := map[string]struct {
		query string
		file  workload.FileJSON
	}{
		"no paths":          {"", noPaths},
		"unknown stage":     {"", unknownStage},
		"dup path name":     {"", dupPath},
		"iterations over 8": {"?path_iterations=9", pathFile(1, 2)},
		"iterations zero":   {"?path_iterations=0", pathFile(1, 2)},
	}
	for name, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/analyze-path"+tc.query, "application/json",
			bytes.NewReader(pathBody(t, tc.file)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if f.callCount() != 0 {
		t.Fatal("invalid requests reached a replica")
	}
	snap := g.Metrics().Snapshot()
	if n := snap.Counters[mGwRejectedValidation]; n != int64(len(cases)) {
		t.Fatalf("rejected.validation = %d, want %d", n, len(cases))
	}
	for _, rh := range g.set.health() {
		if !rh.Healthy || rh.Strikes != 0 {
			t.Fatalf("replica struck by invalid requests: %+v", rh)
		}
	}
}

// TestShardPathsPinsWholePaths: the shard function itself — every path
// maps to exactly one replica and the assignment is deterministic.
func TestShardPathsPinsWholePaths(t *testing.T) {
	file := pathFile(50, 3)
	names := []string{"a", "b", "c"}
	got := shard(file.Paths, names, pathKey)
	total := 0
	for _, shard := range got {
		total += len(shard)
	}
	if total != 50 {
		t.Fatalf("%d paths sharded, want 50", total)
	}
	again := shard(file.Paths, []string{"c", "a", "b"}, pathKey)
	for name, shard := range got {
		seen := map[string]bool{}
		for _, p := range again[name] {
			seen[p.Name] = true
		}
		for _, p := range shard {
			if !seen[p.Name] {
				t.Fatalf("path %s moved when the name order changed", p.Name)
			}
		}
	}
}
