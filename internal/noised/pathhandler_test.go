package noised

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/clarinet"
	"repro/internal/colblob"
	"repro/internal/device"
	"repro/internal/pathnoise"
	"repro/internal/workload"
)

// pathBody builds a real path workload body against the default
// library, the exact bytes netgen -topology path would have written.
func pathBody(t *testing.T, n, stages int, seed int64) ([]*pathnoise.Path, []byte) {
	t.Helper()
	lib := device.NewLibrary(device.Default180())
	gen := workload.NewGenerator(lib, workload.DefaultProfile(), seed)
	names, cases, paths, err := gen.PathPopulation(n, stages)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := workload.SavePaths(&buf, lib.Tech.Name, names, cases, paths); err != nil {
		t.Fatal(err)
	}
	return paths, buf.Bytes()
}

// readPathStream decodes an NDJSON analyze-path response into its stage
// records and terminal summary.
func readPathStream(t *testing.T, body io.Reader) ([]pathnoise.StageRecord, *PathSummary) {
	t.Helper()
	var recs []pathnoise.StageRecord
	var sum *PathSummary
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 256*1024), 16<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var sl PathStreamLine
		if err := json.Unmarshal(sc.Bytes(), &sl); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch {
		case sl.Summary != nil:
			if sum != nil {
				t.Fatal("two summary lines")
			}
			sum = sl.Summary
		case sl.Path != "":
			if sum != nil {
				t.Fatal("record after the summary line")
			}
			recs = append(recs, sl.StageRecord)
		case sl.Heartbeat:
			// keepalive only
		default:
			t.Fatalf("unclassifiable stream line %q", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs, sum
}

// fakeStageRun is a runPaths fake that emits one record per stage and
// assembles real reports from them, honoring the prior map the way
// pathnoise.Run does.
func fakeStageRun(ctx context.Context, tool *clarinet.Tool, paths []*pathnoise.Path, opt pathnoise.Options) ([]*pathnoise.PathReport, error) {
	recs := map[pathnoise.StageKey]pathnoise.StageRecord{}
	for _, p := range paths {
		for s, st := range p.Stages {
			rec, ok := opt.Prior[pathnoise.StageKey{Path: p.Name, Stage: s, Iter: 0}]
			if !ok {
				rec = pathnoise.StageRecord{
					Path: p.Name, Stage: s, Iter: 0, Net: st.Net,
					Final: s == len(p.Stages)-1, Done: s == len(p.Stages)-1,
					Result: &pathnoise.StageResult{
						NoisyArr: float64(s+1) * 1e-12, Cumulative: float64(s+1) * 1e-13,
						Iterations: 1,
					},
				}
				if opt.Journal != nil {
					opt.Journal.Record(rec)
				}
			}
			recs[rec.Key()] = rec
			if opt.Emit != nil {
				opt.Emit(rec)
			}
		}
	}
	return pathnoise.Assemble(paths, recs), nil
}

// TestAnalyzePathMatchesCLI is the serving half of the byte-identity
// acceptance check: a 5-stage path analyzed through POST
// /v1/analyze-path must yield a report rendering byte-identical to the
// clarinet -path run of the same workload on the same session.
func TestAnalyzePathMatchesCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("full path analysis")
	}
	paths, body := pathBody(t, 1, 5, 431)
	s, ts := newTestServer(t, Config{Workers: 1})

	// The CLI reference: pathnoise.Run on a tool over the server's own
	// session (identical engine config), rendered by MarshalReport.
	tool, err := clarinet.New(nil, clarinet.Config{
		Session: s.session,
		Hold:    s.cfg.Hold,
		Align:   s.cfg.Align,
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := pathnoise.Run(context.Background(), tool, paths, pathnoise.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := pathnoise.MarshalReport(reports)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/analyze-path?rescue=false", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	recs, sum := readPathStream(t, resp.Body)
	if sum == nil {
		t.Fatal("no summary line")
	}
	if sum.Paths != 1 || sum.OK != 1 || sum.Failed != 0 {
		t.Fatalf("summary %+v", sum)
	}
	if len(recs) < len(paths[0].Stages) {
		t.Fatalf("%d stage records for a %d-stage path", len(recs), len(paths[0].Stages))
	}
	got, err := pathnoise.MarshalReport(sum.Reports)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("server report differs from CLI report:\nserver:\n%s\ncli:\n%s", got, want)
	}
}

// TestAnalyzePathResume resubmits a journaled request_id: the second
// run must adopt every stage from the server-side journal and return a
// byte-identical report without re-analyzing.
func TestAnalyzePathResume(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{JournalDir: dir})
	s.runPaths = fakeStageRun
	_, body := pathBody(t, 2, 3, 97)

	url := ts.URL + "/v1/analyze-path?request_id=pr1"
	post := func() ([]pathnoise.StageRecord, *PathSummary) {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		return readPathStream(t, resp.Body)
	}

	_, first := post()
	if first.StagesResumed != 0 {
		t.Fatalf("first run resumed %d stages", first.StagesResumed)
	}
	_, second := post()
	if second.StagesResumed != 6 {
		t.Fatalf("second run resumed %d stages, want 6", second.StagesResumed)
	}
	want, err := pathnoise.MarshalReport(first.Reports)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pathnoise.MarshalReport(second.Reports)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed report differs:\n%s\nvs\n%s", got, want)
	}
	if n := s.Metrics().Snapshot().Counters[mServerRequestsResumed]; n != 1 {
		t.Fatalf("requests.resumed = %d, want 1", n)
	}
}

// TestAnalyzePathColblobWire negotiates the binary wire and decodes it:
// stage records come back as FramePathStage frames, the summary as a
// summary frame with the same JSON schema as the NDJSON wire.
func TestAnalyzePathColblobWire(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.runPaths = fakeStageRun
	_, body := pathBody(t, 1, 2, 55)

	req, err := http.NewRequest("POST", ts.URL+"/v1/analyze-path", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", clarinet.ContentTypeColblob)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != clarinet.ContentTypeColblob {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	// The stage-record view: the journal reader over the response body.
	recs, err := pathnoise.ReadPathJournal(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d stage records on the binary wire, want 2", len(recs))
	}

	// The summary frame.
	fr := colblob.NewFrameReader(bytes.NewReader(raw))
	var sum *PathSummary
	for {
		kind, payload, err := fr.Next()
		if err != nil {
			break
		}
		if kind != colblob.FrameSummary {
			continue
		}
		sum = &PathSummary{}
		if err := json.Unmarshal(payload, sum); err != nil {
			t.Fatal(err)
		}
	}
	if sum == nil || sum.Paths != 1 || sum.OK != 1 || len(sum.Reports) != 1 {
		t.Fatalf("summary frame %+v", sum)
	}
}

// TestAnalyzePathValidation covers the 400 paths: a body without a
// paths section and out-of-range path knobs.
func TestAnalyzePathValidation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.runPaths = fakeStageRun
	_, netBody := testBody(t, 1)
	_, pBody := pathBody(t, 1, 2, 55)

	for name, tc := range map[string]struct {
		url  string
		body []byte
		want int
	}{
		"no paths":            {ts.URL + "/v1/analyze-path", netBody, http.StatusBadRequest},
		"bad iterations":      {ts.URL + "/v1/analyze-path?path_iterations=0", pBody, http.StatusBadRequest},
		"huge iterations":     {ts.URL + "/v1/analyze-path?path_iterations=99", pBody, http.StatusBadRequest},
		"bad path timeout":    {ts.URL + "/v1/analyze-path?path_timeout=-3s", pBody, http.StatusBadRequest},
		"malformed body json": {ts.URL + "/v1/analyze-path", []byte("{"), http.StatusBadRequest},
	} {
		resp, err := http.Post(tc.url, "application/json", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d (%s)", name, resp.StatusCode, tc.want, strings.TrimSpace(string(b)))
		}
	}
	if got := fmt.Sprint(s.Metrics().Snapshot().Counters[mServerRejectedValidation]); got != "5" {
		t.Fatalf("rejected.validation = %s, want 5", got)
	}
}
