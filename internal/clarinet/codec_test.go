package clarinet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/align"
	"repro/internal/colblob"
	"repro/internal/delaynoise"
	"repro/internal/noiseerr"
	"repro/internal/resilience"
)

// TestCodecByName pins the flag vocabulary and the binary default.
func TestCodecByName(t *testing.T) {
	for name, want := range map[string]JournalCodec{
		"": Binary, "binary": Binary, "jsonl": JSONL, "json": JSONL,
	} {
		c, err := CodecByName(name)
		if err != nil || c != want {
			t.Fatalf("CodecByName(%q) = %v, %v", name, c, err)
		}
	}
	if _, err := CodecByName("protobuf"); err == nil {
		t.Fatal("CodecByName accepted an unknown format")
	}
}

// TestBinaryRecordRoundTrip pins the compact record payload: every
// field, hostile floats included, must survive bit-exactly through one
// encoder/decoder pair (records chain, so order matters and is shared).
func TestBinaryRecordRoundTrip(t *testing.T) {
	recs := []JournalRecord{
		{Net: "n1", Quality: "exact", Result: &JournalResult{
			VictimCeff: 1.25e-13, VictimRth: 812.5, VictimRtr: 633,
			PulseHeight: 0.41, PulseWidth: 3.5e-11, TPeak: 1.5e-10,
			QuietCombinedDelay: 2.25e-10, NoisyCombinedDelay: 2.5e-10,
			DelayNoise: 2.5e-11, InterconnectDelayNoise: 1e-12, Iterations: 6,
		}},
		{Net: "n2", Class: "numerical", Error: "nlsim: newton stalled at t=1.2e-10"},
		{Net: "n3", Quality: "fallback", Result: &JournalResult{
			DelayNoise: math.Copysign(0, -1), TPeak: math.MaxFloat64,
			VictimCeff: math.SmallestNonzeroFloat64,
		}},
		// The exact-sum fast path, and its escape: a NoisyCombinedDelay
		// that is NOT quiet+noise (rounded differently upstream).
		{Net: "n3_sibling", Quality: "exact", Result: &JournalResult{
			QuietCombinedDelay: 2e-10, DelayNoise: 3e-11,
			NoisyCombinedDelay: 2e-10 + 3e-11, Iterations: 2,
		}},
		{Net: "n3_cousin", Quality: "rescued", Result: &JournalResult{
			QuietCombinedDelay: 2e-10, DelayNoise: 3e-11,
			NoisyCombinedDelay: math.Nextafter(2e-10+3e-11, 1), Iterations: 3,
		}},
		// Out-of-vocabulary enum values must survive via the escape.
		{Net: "n4", Quality: "heroic", Class: "future-class", Error: "x"},
		{Net: ""},
	}
	var enc BinaryRecordEncoder
	var dec BinaryRecordDecoder
	for i, rec := range recs {
		got, err := dec.Decode(enc.Append(nil, rec))
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("record %d:\n got  %+v\n want %+v", i, got, rec)
		}
	}
	var fresh BinaryRecordDecoder
	if _, err := fresh.Decode([]byte{3, 'a', 'b'}); err == nil {
		t.Fatal("truncated payload decoded")
	}
}

// TestBinaryEnumsPinned: the one-byte enum tables must cover every
// value the rest of the codebase can produce — a new quality or error
// class that silently falls onto the escape path costs bytes, and a
// REORDERED table breaks decoding of existing journals.
func TestBinaryEnumsPinned(t *testing.T) {
	wantQuality := []string{"", "exact", "rescued", "fallback"}
	if !reflect.DeepEqual(qualityEnum, wantQuality) {
		t.Fatalf("qualityEnum = %q (append-only; reordering breaks old journals)", qualityEnum)
	}
	for _, q := range []resilience.Quality{resilience.QualityExact, resilience.QualityRescued, resilience.QualityFallback} {
		if !contains(qualityEnum, q.String()) {
			t.Fatalf("quality %q missing from enum table", q)
		}
	}
	wantClass := []string{"", "invalid-case", "convergence", "numerical",
		"canceled", "deadline", "internal", "unclassified"}
	if !reflect.DeepEqual(classEnum, wantClass) {
		t.Fatalf("classEnum = %q (append-only; reordering breaks old journals)", classEnum)
	}
	for _, err := range []error{
		noiseerr.Invalidf("x"), noiseerr.Convergencef("x"), noiseerr.Numericalf("x"),
		noiseerr.Canceled(context.Canceled), noiseerr.As(noiseerr.ErrDeadline, context.DeadlineExceeded),
		noiseerr.Internalf("x"),
	} {
		if name := noiseerr.ClassName(err); !contains(classEnum, name) {
			t.Fatalf("class %q missing from enum table", name)
		}
	}
}

func contains(vocab []string, s string) bool {
	for _, v := range vocab {
		if v == s {
			return true
		}
	}
	return false
}

// TestBinaryJournalRoundTrip mirrors TestJournalRoundTrip on the binary
// codec: canceled reports skipped, failures round-tripping message and
// class, a torn trailing frame tolerated, last record winning — and
// ReadJournal sniffing the format with no hint.
func TestBinaryJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournalWith(&buf, Binary)
	okRep := NetReport{Name: "good", Res: cannedResult("good"), Quality: resilience.QualityRescued}
	failRep := NetReport{Name: "bad", Err: noiseerr.WithNet("bad", noiseerr.Numericalf("singular"))}
	for _, r := range []NetReport{
		okRep,
		failRep,
		{Name: "dying", Err: noiseerr.Canceled(context.Canceled)},
		{Name: "good", Res: cannedResult("better"), Quality: resilience.QualityExact},
	} {
		if err := j.Record(r); err != nil {
			t.Fatal(err)
		}
	}
	// The torn tail a kill mid-write leaves: half a frame.
	var tornEnc BinaryRecordEncoder
	whole := colblob.AppendFrame(nil, colblob.FrameRecord, tornEnc.Append(nil, JournalRecord{Net: "torn"}))
	buf.Write(whole[:len(whole)-5])

	prior, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 2 {
		t.Fatalf("replayed %d nets, want 2 (got %v)", len(prior), prior)
	}
	if _, ok := prior["dying"]; ok {
		t.Fatal("canceled report must not be journaled")
	}
	good := prior["good"]
	if good.Quality != resilience.QualityExact || good.Res.DelayNoise != cannedResult("better").DelayNoise {
		t.Fatalf("last record did not win: %+v", good)
	}
	bad := prior["bad"]
	if bad.Err == nil || bad.Err.Error() != failRep.Err.Error() {
		t.Fatalf("failure message changed: %v vs %v", bad.Err, failRep.Err)
	}
	if !errors.Is(bad.Err, noiseerr.ErrNumerical) {
		t.Fatal("failure class lost through the journal")
	}
}

// TestBinaryJournalByteIdentical renders a report set journaled through
// the binary codec and demands byte-identity with the original — the
// same acceptance criterion the JSONL resume path meets.
func TestBinaryJournalByteIdentical(t *testing.T) {
	reports := []NetReport{
		{Name: "a", Res: cannedResult("a"), Quality: resilience.QualityExact},
		{Name: "b", Res: cannedResult("b"), Quality: resilience.QualityFallback},
		{Name: "c", Err: noiseerr.WithNet("c", noiseerr.Convergencef("homotopy exhausted"))},
	}
	render := func(reps []NetReport) string {
		var b bytes.Buffer
		WriteReportOpts(&b, reps, ReportOptions{Quality: true})
		return b.String()
	}
	want := render(reports)
	var buf bytes.Buffer
	j := NewJournalWith(&buf, Binary)
	for _, r := range reports {
		if err := j.Record(r); err != nil {
			t.Fatal(err)
		}
	}
	prior, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	resumed := make([]NetReport, 0, len(reports))
	for _, r := range reports {
		resumed = append(resumed, prior[r.Name])
	}
	if got := render(resumed); got != want {
		t.Fatalf("binary-journaled report differs:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// denseResult mimics real analyzed output for size tests: solver floats
// carry full-entropy 52-bit mantissas (they serialize to ~17 significant
// digits in JSON), and NoisyCombinedDelay is definitionally
// quiet+noise. cannedResult's byte-derived fractions serialize to short
// decimals and would flatter JSONL.
func denseResult(name string) *delaynoise.Result {
	h := fnv.New64a()
	h.Write([]byte(name))
	x := h.Sum64()
	next := func(scale float64) float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return scale * (0.5 + float64(x&((1<<52)-1))/(1<<53))
	}
	res := &delaynoise.Result{
		VictimCeff:             next(1e-13),
		VictimRth:              next(1000),
		VictimRtr:              next(800),
		TPeak:                  next(1e-9),
		QuietCombinedDelay:     next(1e-10),
		DelayNoise:             next(5e-11),
		InterconnectDelayNoise: next(2e-11),
		Iterations:             int(x%7) + 1,
	}
	res.NoisyCombinedDelay = res.QuietCombinedDelay + res.DelayNoise
	res.Pulse = align.Pulse{Height: next(0.5), Width: next(1e-10)}
	return res
}

// TestBinaryJournalSmaller pins the headline size claim: over a batch
// of full result records, the binary journal is at least 5x smaller
// than the JSONL one. (BenchmarkJournalCodec measures the same ratio on
// the 300-net reference batch for the trajectory.)
func TestBinaryJournalSmaller(t *testing.T) {
	var bin, jsonl bytes.Buffer
	bj := NewJournalWith(&bin, Binary)
	jj := NewJournalWith(&jsonl, JSONL)
	const nets = 32
	for i := 0; i < nets; i++ {
		name := fmt.Sprintf("net_%04d_m3_vict", i)
		rep := NetReport{Name: name, Res: denseResult(name), Quality: resilience.QualityExact}
		if err := bj.Record(rep); err != nil {
			t.Fatal(err)
		}
		if err := jj.Record(rep); err != nil {
			t.Fatal(err)
		}
	}
	if 5*bin.Len() > jsonl.Len() {
		t.Fatalf("binary journal %dB/net vs JSONL %dB/net (%.2fx); want >= 5x smaller",
			bin.Len()/nets, jsonl.Len()/nets, float64(jsonl.Len())/float64(bin.Len()))
	}
}

// TestOpenJournalTornTailRepair is the file-level torn-tail test for
// both codecs: kill a writer mid-record, reopen, append, and demand a
// clean replay of everything but the torn record. Mirrors the JSONL
// torn-line tests at the binary frame level, where repair truncates
// instead of inserting a separator.
func TestOpenJournalTornTailRepair(t *testing.T) {
	for _, codec := range []JournalCodec{Binary, JSONL} {
		t.Run(codec.Name(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.journal")
			j, closeJ, err := OpenJournal(path, codec)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Record(NetReport{Name: "first", Res: cannedResult("first")}); err != nil {
				t.Fatal(err)
			}
			if err := closeJ(); err != nil {
				t.Fatal(err)
			}
			// Simulate the kill: append half an encoded record.
			rec, _ := ToRecord(NetReport{Name: "torn", Res: cannedResult("torn")})
			var encBuf bytes.Buffer
			if err := codec.NewWriter(&encBuf).WriteRecord(rec); err != nil {
				t.Fatal(err)
			}
			enc := encBuf.Bytes()
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(enc[:len(enc)/2]); err != nil {
				t.Fatal(err)
			}
			f.Close()

			// Reopen: repair must confine the damage to the torn record.
			j, closeJ, err = OpenJournal(path, codec)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Record(NetReport{Name: "second", Res: cannedResult("second")}); err != nil {
				t.Fatal(err)
			}
			if err := closeJ(); err != nil {
				t.Fatal(err)
			}
			prior, err := ReadJournalFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(prior) != 2 {
				t.Fatalf("replayed %d nets, want 2: %v", len(prior), prior)
			}
			for _, n := range []string{"first", "second"} {
				if _, ok := prior[n]; !ok {
					t.Fatalf("net %q lost", n)
				}
			}
			if _, ok := prior["torn"]; ok {
				t.Fatal("torn record replayed")
			}
		})
	}
}

// TestOpenJournalFormatSticky: an existing journal's format wins over
// the requested codec, so a resumed run never interleaves encodings in
// one file.
func TestOpenJournalFormatSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, closeJ, err := OpenJournal(path, JSONL)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(NetReport{Name: "first", Res: cannedResult("first")}); err != nil {
		t.Fatal(err)
	}
	closeJ()

	// Reopen asking for binary: the sniffed JSONL must stick.
	j, closeJ, err = OpenJournal(path, Binary)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(NetReport{Name: "second", Res: cannedResult("second")}); err != nil {
		t.Fatal(err)
	}
	closeJ()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.IndexByte(data, colblob.FrameMagic) != -1 {
		t.Fatal("binary frame interleaved into a JSONL journal")
	}
	prior, err := ReadJournalFile(path)
	if err != nil || len(prior) != 2 {
		t.Fatalf("replay = %d nets, %v", len(prior), err)
	}
}

// TestBinaryJournalMidFileCorruption: a flipped byte mid-file costs the
// records behind it (the frame chain breaks) but never fabricates one,
// and repair-on-open truncates the unusable tail so appends work.
func TestBinaryJournalMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, closeJ, err := OpenJournal(path, Binary)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"a", "b", "c"} {
		if err := j.Record(NetReport{Name: n, Res: cannedResult(n)}); err != nil {
			t.Fatal(err)
		}
	}
	closeJ()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	prior, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) >= 3 {
		t.Fatalf("corrupt journal replayed all %d nets", len(prior))
	}
	if _, _, err := OpenJournal(path, Binary); err != nil {
		t.Fatalf("repair-on-open failed: %v", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() >= int64(len(data)) {
		t.Fatalf("repair left the corrupt tail in place (%d bytes)", st.Size())
	}
}
