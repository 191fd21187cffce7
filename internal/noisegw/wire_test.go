package noisegw

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/clarinet"
	"repro/internal/colblob"
	"repro/internal/workload"
)

// update rewrites the wire goldens instead of comparing against them:
// go test ./internal/noisegw -run TestGatewayWireGolden -update
var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current wire")

// elapsedField matches the only wall-clock field of a stream: the
// summary's elapsed_ms.
var elapsedField = regexp.MustCompile(`"elapsed_ms":[0-9]+`)

// zeroElapsed returns body with the summary's elapsed_ms set to 0,
// re-framing the colblob wire (and checking that re-framing reproduces
// every untouched frame byte for byte).
func zeroElapsed(t *testing.T, body []byte, binary bool) []byte {
	t.Helper()
	if !binary {
		return elapsedField.ReplaceAll(body, []byte(`"elapsed_ms":0`))
	}
	var same, out []byte
	fr := colblob.NewFrameReader(bytes.NewReader(body))
	for {
		kind, payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("frame walk: %v", err)
		}
		same = colblob.AppendFrame(same, kind, payload)
		if kind == colblob.FrameSummary {
			payload = elapsedField.ReplaceAll(payload, []byte(`"elapsed_ms":0`))
		}
		out = colblob.AppendFrame(out, kind, payload)
	}
	if !bytes.Equal(same, body) {
		t.Fatal("re-framing the colblob body does not reproduce it")
	}
	return out
}

// checkGolden compares got with testdata/<name>.golden, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: wire bytes differ from the golden\n got %q\nwant %q", name, got, want)
	}
}

// post sends body to url, negotiating colblob when binary is set.
func post(t *testing.T, url string, body []byte, binary bool) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if binary {
		req.Header.Set("Accept", clarinet.ContentTypeColblob)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestGatewayWireGolden pins every byte the gateway writes on both
// analyze routes, in both encodings, over one scripted replica (so the
// merge order is the replica's stream order). Heartbeats are off and
// elapsed_ms is zeroed, so the goldens are the whole response.
func TestGatewayWireGolden(t *testing.T) {
	nets := newFakeReplica(t)
	_, netGW := newTestGateway(t, func(c *Config) { c.Heartbeat = -1 }, nets)
	paths := newFakePathReplica(t)
	_, pathGW := newPathGateway(t, func(c *Config) { c.Heartbeat = -1 }, paths)

	for _, tc := range []struct {
		name, url string
		body      []byte
	}{
		{"analyze", netGW.URL + "/v1/analyze?request_id=golden", casesBody(t, testCases(5))},
		{"analyze-path", pathGW.URL + "/v1/analyze-path?request_id=golden", pathBody(t, pathFile(2, 3))},
	} {
		for _, binary := range []bool{false, true} {
			name := tc.name + ".ndjson"
			if binary {
				name = tc.name + ".colblob"
			}
			t.Run(name, func(t *testing.T) {
				resp := post(t, tc.url, tc.body, binary)
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status = %s", resp.Status)
				}
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, name, zeroElapsed(t, body, binary))
			})
		}
	}
}

// Exact heartbeat encodings of the gateway's own client streams — the
// same bytes a replica writes.
const (
	netHeartbeatLine  = `{"net":"","heartbeat":true}` + "\n"
	pathHeartbeatLine = `{"path":"","stage":0,"iter":0,"net":"","heartbeat":true}` + "\n"
	heartbeatFrame    = "\xcb\x03\x00%#\"\x84"
)

// TestGatewayHeartbeatBytes parks the replica and pins the first
// heartbeat the gateway sends its client, on both routes and both
// encodings.
func TestGatewayHeartbeatBytes(t *testing.T) {
	park := func(n int, w http.ResponseWriter, r *http.Request, file workload.FileJSON) bool {
		<-r.Context().Done()
		return true
	}
	nets := newFakeReplica(t)
	nets.behave = park
	_, netGW := newTestGateway(t, func(c *Config) { c.Heartbeat = 20 * time.Millisecond }, nets)
	paths := newFakePathReplica(t)
	paths.behave = park
	_, pathGW := newPathGateway(t, func(c *Config) { c.Heartbeat = 20 * time.Millisecond }, paths)

	for _, tc := range []struct {
		name, url string
		body      []byte
		binary    bool
		want      string
	}{
		{"analyze.ndjson", netGW.URL + "/v1/analyze", casesBody(t, testCases(2)), false, netHeartbeatLine},
		{"analyze.colblob", netGW.URL + "/v1/analyze", casesBody(t, testCases(2)), true, heartbeatFrame},
		{"analyze-path.ndjson", pathGW.URL + "/v1/analyze-path", pathBody(t, pathFile(1, 2)), false, pathHeartbeatLine},
		{"analyze-path.colblob", pathGW.URL + "/v1/analyze-path", pathBody(t, pathFile(1, 2)), true, heartbeatFrame},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := post(t, tc.url, tc.body, tc.binary)
			defer resp.Body.Close()
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
