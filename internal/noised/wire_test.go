package noised

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/clarinet"
	"repro/internal/colblob"
)

// update rewrites the wire goldens instead of comparing against them:
// go test ./internal/noised -run TestWireGolden -update
var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current wire")

// elapsedField matches the only wall-clock field of a stream: the
// summary's elapsed_ms.
var elapsedField = regexp.MustCompile(`"elapsed_ms":[0-9]+`)

// zeroElapsed returns body with the summary's elapsed_ms set to 0. The
// colblob wire is walked frame by frame and re-framed; every frame
// other than the summary re-encodes to its original bytes, which the
// function checks, so the result is the full response less one number.
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

// TestWireGolden pins every byte both analyze endpoints write, in both
// encodings: records, summary, and the framing around them. The fake
// pool and scheduler make the content deterministic; heartbeats are off
// and elapsed_ms is zeroed, so the goldens are the whole response.
func TestWireGolden(t *testing.T) {
	s, ts := newTestServer(t, Config{Heartbeat: -1})
	s.runBatch = instantBatch
	s.runPaths = fakeStageRun
	_, nets := testBody(t, 3)
	_, paths := pathBody(t, 2, 3, 97)

	for _, tc := range []struct {
		name, route string
		body        []byte
	}{
		{"analyze", "/v1/analyze?request_id=golden", nets},
		{"analyze-path", "/v1/analyze-path?request_id=golden", paths},
	} {
		for _, binary := range []bool{false, true} {
			name := tc.name + ".ndjson"
			if binary {
				name = tc.name + ".colblob"
			}
			t.Run(name, func(t *testing.T) {
				req, err := http.NewRequest(http.MethodPost, ts.URL+tc.route, bytes.NewReader(tc.body))
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
