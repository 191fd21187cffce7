package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/clarinet"
	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/funcnoise"
	"repro/internal/spef"
	"repro/internal/workload"
)

// TestPipelineEndToEnd exercises the full tool path the CLIs wrap:
// generate a population, serialize it (JSON and mini-SPEF), reload it,
// batch-analyze with the paper's flow, and render reports.
func TestPipelineEndToEnd(t *testing.T) {
	lib := device.NewLibrary(device.Default180())
	gen := workload.NewGenerator(lib, workload.DefaultProfile(), 77)
	const n = 4
	cases, err := gen.Population(n)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, n)
	for i := range names {
		names[i] = "itnet" + string(rune('0'+i))
	}

	// JSON round trip.
	var buf bytes.Buffer
	if err := workload.Save(&buf, "generic-180nm", names, cases); err != nil {
		t.Fatal(err)
	}
	names2, cases2, err := workload.Load(&buf, lib)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases2) != n {
		t.Fatalf("reloaded %d cases", len(cases2))
	}

	// SPEF round trip of each interconnect.
	for i, c := range cases2 {
		var sb bytes.Buffer
		if err := spef.Write(&sb, names2[i], c.Net.Circuit); err != nil {
			t.Fatal(err)
		}
		parsed, err := spef.Parse(&sb)
		if err != nil {
			t.Fatal(err)
		}
		if len(parsed.Circuit.Resistors) != len(c.Net.Circuit.Resistors) {
			t.Fatalf("net %d SPEF round trip lost resistors", i)
		}
	}

	// Batch delay-noise analysis (paper flow) + report.
	tool := clarinet.MustNew(lib, clarinet.Config{
		Hold:  delaynoise.HoldTransient,
		Align: delaynoise.AlignExhaustive,
	})
	reports := tool.AnalyzeAll(names2, cases2)
	var rb bytes.Buffer
	clarinet.WriteReportOpts(&rb, reports, clarinet.ReportOptions{})
	for i, r := range reports {
		if r.Err != nil {
			t.Fatalf("net %s failed: %v", r.Name, r.Err)
		}
		if r.Res.DelayNoise <= 0 {
			t.Errorf("net %s: non-positive worst-case delay noise %v", r.Name, r.Res.DelayNoise)
		}
		if r.Res.VictimRtr == r.Res.VictimRth {
			t.Errorf("net %s: transient holding resistance never updated", r.Name)
		}
		if !strings.Contains(rb.String(), names2[i]) {
			t.Errorf("report missing %s", names2[i])
		}
	}

	// Functional-noise pass over the same nets.
	freports := tool.FunctionalAll(names2, cases2, funcnoise.Options{})
	for _, r := range freports {
		if r.Err != nil {
			t.Fatalf("func %s failed: %v", r.Name, r.Err)
		}
	}

	// Spot-validate one net against the nonlinear reference.
	res := reports[0].Res
	golden, err := delaynoise.GoldenAtShifts(cases2[0],
		delaynoise.PeakShifts(res.NoisePeakTimes, res.TPeak))
	if err != nil {
		t.Fatal(err)
	}
	if golden.DelayNoise <= 0 {
		t.Fatalf("golden validation failed: %v", golden.DelayNoise)
	}
	rel := res.DelayNoise/golden.DelayNoise - 1
	if rel < -0.6 || rel > 0.6 {
		t.Errorf("linear flow off by %.0f%% from nonlinear reference", rel*100)
	}
}
