package noised

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/clarinet"
	"repro/internal/colblob"
	"repro/internal/pathnoise"
)

// TestHeartbeatNDJSON holds the batch idle for several heartbeat
// intervals: the stream must carry keepalive lines while nothing
// completes, then the records and summary once released, and existing
// consumers (readStream) must skip the heartbeats transparently.
func TestHeartbeatNDJSON(t *testing.T) {
	s, ts := newTestServer(t, Config{Heartbeat: 20 * time.Millisecond})
	started := make(chan context.Context, 1)
	release := make(chan struct{})
	s.runBatch = blockingBatch(started, release)
	names, body := testBody(t, 2)

	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	<-started

	// Read lines live: the first ones must be heartbeats, since the
	// batch is parked.
	br := bufio.NewReader(resp.Body)
	beats := 0
	for beats < 3 {
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("reading heartbeat %d: %v", beats+1, err)
		}
		var sl StreamLine
		if err := json.Unmarshal(line, &sl); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		if !sl.Heartbeat || sl.Net != "" || sl.Summary != nil {
			t.Fatalf("want pure heartbeat line, got %q", line)
		}
		beats++
	}
	close(release)
	recs, sum := readStream(t, br)
	if len(recs) != len(names) {
		t.Fatalf("records = %d, want %d", len(recs), len(names))
	}
	if sum == nil || sum.OK != len(names) {
		t.Fatalf("summary = %+v", sum)
	}
	if s.reg.Counter(mServerHeartbeats).Value() < 3 {
		t.Fatalf("heartbeat counter = %d, want >= 3", s.reg.Counter(mServerHeartbeats).Value())
	}
}

// TestHeartbeatColblob: the binary wire interleaves FrameHeartbeat
// frames, and the frame loop (which skips unknown kinds by contract)
// still recovers every record and the summary.
func TestHeartbeatColblob(t *testing.T) {
	s, ts := newTestServer(t, Config{Heartbeat: 20 * time.Millisecond})
	started := make(chan context.Context, 1)
	release := make(chan struct{})
	s.runBatch = blockingBatch(started, release)
	names, body := testBody(t, 2)

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
	<-started
	go func() {
		time.Sleep(100 * time.Millisecond)
		close(release)
	}()

	fr := colblob.NewFrameReader(resp.Body)
	var dec clarinet.BinaryRecordDecoder
	var sum *Summary
	beats, records := 0, 0
	for {
		kind, payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch kind {
		case colblob.FrameHeartbeat:
			if len(payload) != 0 {
				t.Fatalf("heartbeat frame carries %d payload bytes", len(payload))
			}
			beats++
		case colblob.FrameRecord:
			if _, err := dec.Decode(payload); err != nil {
				t.Fatal(err)
			}
			records++
		case colblob.FrameSummary:
			sum = &Summary{}
			if err := json.Unmarshal(payload, sum); err != nil {
				t.Fatal(err)
			}
		}
	}
	if beats < 3 {
		t.Fatalf("heartbeat frames = %d, want >= 3", beats)
	}
	if records != len(names) {
		t.Fatalf("record frames = %d, want %d", records, len(names))
	}
	if sum == nil || sum.OK != len(names) {
		t.Fatalf("summary = %+v", sum)
	}
}

// TestInstanceIdentity: a server exposes one stable random instance ID
// on /healthz and every response header, and two servers never share
// one.
func TestInstanceIdentity(t *testing.T) {
	s1, ts1 := newTestServer(t, Config{})
	s2, _ := newTestServer(t, Config{})
	if s1.instance == "" || s1.instance == s2.instance {
		t.Fatalf("instances %q vs %q: want distinct non-empty", s1.instance, s2.instance)
	}
	resp, err := http.Get(ts1.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(InstanceHeader); got != s1.instance {
		t.Fatalf("%s header = %q, want %q", InstanceHeader, got, s1.instance)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Instance != s1.instance {
		t.Fatalf("healthz instance = %q, want %q", h.Instance, s1.instance)
	}
	rdy, err := http.Get(ts1.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rdy.Body.Close()
	if got := rdy.Header.Get(InstanceHeader); got != s1.instance {
		t.Fatalf("readyz %s header = %q, want %q", InstanceHeader, got, s1.instance)
	}
}

// Exact heartbeat encodings: an NDJSON heartbeat is the stream line
// type with only the heartbeat flag set (the embedded record's
// non-omitempty fields included), a colblob heartbeat is an empty
// FrameHeartbeat frame.
const (
	netHeartbeatLine  = `{"net":"","heartbeat":true}` + "\n"
	pathHeartbeatLine = `{"path":"","stage":0,"iter":0,"net":"","heartbeat":true}` + "\n"
	heartbeatFrame    = "\xcb\x03\x00%#\"\x84"
)

// blockingPaths is a runPaths fake that parks until release is closed
// (or the stream context dies), reporting the context on started.
func blockingPaths(started chan context.Context, release chan struct{}) runPathsFunc {
	return func(ctx context.Context, tool *clarinet.Tool, paths []*pathnoise.Path, opt pathnoise.Options) ([]*pathnoise.PathReport, error) {
		started <- ctx
		select {
		case <-release:
			return fakeStageRun(ctx, tool, paths, opt)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// TestHeartbeatBytes pins the first heartbeat of a parked stream byte
// for byte, on both endpoints and both encodings, and checks that the
// response advertises the interval.
func TestHeartbeatBytes(t *testing.T) {
	_, nets := testBody(t, 1)
	_, paths := pathBody(t, 1, 2, 55)
	for _, tc := range []struct {
		name, route string
		body        []byte
		binary      bool
		want        string
	}{
		{"analyze.ndjson", "/v1/analyze", nets, false, netHeartbeatLine},
		{"analyze.colblob", "/v1/analyze", nets, true, heartbeatFrame},
		{"analyze-path.ndjson", "/v1/analyze-path", paths, false, pathHeartbeatLine},
		{"analyze-path.colblob", "/v1/analyze-path", paths, true, heartbeatFrame},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Heartbeat: 20 * time.Millisecond})
			started := make(chan context.Context, 1)
			release := make(chan struct{})
			defer close(release)
			s.runBatch = blockingBatch(started, release)
			s.runPaths = blockingPaths(started, release)
			req, err := http.NewRequest(http.MethodPost, ts.URL+tc.route, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.binary {
				req.Header.Set("Accept", clarinet.ContentTypeColblob)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if hb := resp.Header.Get(HeartbeatHeader); hb != "20ms" {
				t.Fatalf("%s = %q, want the configured 20ms", HeartbeatHeader, hb)
			}
			<-started
			got := make([]byte, len(tc.want))
			if _, err := io.ReadFull(resp.Body, got); err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.want {
				t.Fatalf("first heartbeat = %q, want %q", got, tc.want)
			}
		})
	}
}
