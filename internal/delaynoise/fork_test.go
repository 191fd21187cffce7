package delaynoise_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// forkRun is one pass over the population at one GOMAXPROCS: each
// configuration's results, in population order, its cache.* and sim.*
// counters, and the alignment tables it built.
type forkRun struct {
	results  map[string][]*delaynoise.Result
	counters map[string]map[string]int64
	tables   map[string]*align.Table
}

// forkConfigs cover every fork: exhaustive (the sweep's grid and
// refinement forks), prechar (the table's searches), receiver-input
// alignment, both hold models (the victim's hold drive in the
// characterization fork), AggressorTransient (the aggressor-hold
// fork) and Minimize. Every analysis runs the driver-fit forks and the
// report fork.
var forkConfigs = []struct {
	name string
	opt  delaynoise.Options
}{
	{"exhaustive/transient", delaynoise.Options{Hold: delaynoise.HoldTransient, Align: delaynoise.AlignExhaustive}},
	{"exhaustive/thevenin/minimize", delaynoise.Options{Hold: delaynoise.HoldThevenin, Align: delaynoise.AlignExhaustive, Minimize: true}},
	{"prechar/transient", delaynoise.Options{Hold: delaynoise.HoldTransient, Align: delaynoise.AlignPrechar}},
	{"input/thevenin/aggtransient", delaynoise.Options{Hold: delaynoise.HoldThevenin, Align: delaynoise.AlignReceiverInput, AggressorTransient: true}},
	{"input/transient/aggtransient/minimize", delaynoise.Options{Hold: delaynoise.HoldTransient, Align: delaynoise.AlignReceiverInput, AggressorTransient: true, Minimize: true}},
}

// analyzeAt analyzes cases under every configuration with GOMAXPROCS
// set to procs, one shared characterization cache per configuration.
func analyzeAt(t *testing.T, procs int, cases []*delaynoise.Case) forkRun {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	ctx := context.Background()
	run := forkRun{results: map[string][]*delaynoise.Result{}, counters: map[string]map[string]int64{}, tables: map[string]*align.Table{}}
	for _, cfg := range forkConfigs {
		reg := metrics.NewRegistry()
		opt := cfg.opt
		opt.Chars = delaynoise.NewCharCache(reg)
		opt.Metrics = reg
		for i, c := range cases {
			if opt.Align == delaynoise.AlignPrechar {
				key := fmt.Sprintf("%s/%v", c.Receiver.Name, c.Victim.OutputRising)
				if run.tables[key] == nil {
					tab, err := align.PrecharacterizeContext(ctx, c.Receiver, c.Victim.OutputRising, align.DefaultConfig(c.Receiver.Tech))
					if err != nil {
						t.Fatal(err)
					}
					run.tables[key] = tab
				}
				opt.Table = run.tables[key]
			}
			res, err := delaynoise.AnalyzeContext(ctx, c, opt)
			if err != nil {
				t.Fatalf("procs %d, %s, net %d: %v", procs, cfg.name, i, err)
			}
			run.results[cfg.name] = append(run.results[cfg.name], res)
			quiet, err := delaynoise.AnalyzeQuietContext(ctx, c, opt)
			if err != nil {
				t.Fatalf("procs %d, %s, net %d quiet: %v", procs, cfg.name, i, err)
			}
			run.results[cfg.name+"/quiet"] = append(run.results[cfg.name+"/quiet"], quiet)
		}
		counts := map[string]int64{}
		for name, v := range reg.Snapshot().Counters {
			if strings.HasPrefix(name, "cache.") || strings.HasPrefix(name, "sim.") {
				counts[name] = v
			}
		}
		run.counters[cfg.name] = counts
	}
	return run
}

// TestForkedAnalysisBitIdentical analyzes a population with every fork
// inline (GOMAXPROCS 1: the analysis itself fills the count) and with
// forks on helpers (GOMAXPROCS 4). Every Result float, waveform and
// table entry must match bit for bit, and so must every cache.* and
// sim.* counter.
func TestForkedAnalysisBitIdentical(t *testing.T) {
	lib := device.NewLibrary(device.Default180())
	cases, err := workload.NewGenerator(lib, workload.DefaultProfile(), 5).Population(2)
	if err != nil {
		t.Fatal(err)
	}
	inline, forked := analyzeAt(t, 1, cases), analyzeAt(t, 4, cases)
	for name, want := range inline.results {
		for i := range want {
			sameBits(t, fmt.Sprintf("%s/net%d", name, i), reflect.ValueOf(forked.results[name][i]), reflect.ValueOf(want[i]))
		}
	}
	if !reflect.DeepEqual(forked.counters, inline.counters) {
		t.Errorf("counters forked %v, inline %v", forked.counters, inline.counters)
	}
	if len(inline.tables) == 0 || len(forked.tables) != len(inline.tables) {
		t.Fatalf("%d tables forked, %d inline", len(forked.tables), len(inline.tables))
	}
	for key, want := range inline.tables {
		sameBits(t, "table "+key, reflect.ValueOf(forked.tables[key]), reflect.ValueOf(want))
	}
}

// sameBits compares got and want field by field, floats by their bits.
func sameBits(t *testing.T, path string, got, want reflect.Value) {
	t.Helper()
	if got.Kind() != want.Kind() {
		t.Errorf("%s: kind %v, want %v", path, got.Kind(), want.Kind())
		return
	}
	switch want.Kind() {
	case reflect.Float64:
		if math.Float64bits(got.Float()) != math.Float64bits(want.Float()) {
			t.Errorf("%s = %v, want %v", path, got.Float(), want.Float())
		}
	case reflect.Pointer:
		if got.IsNil() != want.IsNil() {
			t.Errorf("%s: nil %v, want nil %v", path, got.IsNil(), want.IsNil())
		} else if !want.IsNil() {
			sameBits(t, path, got.Elem(), want.Elem())
		}
	case reflect.Slice, reflect.Array:
		if got.Len() != want.Len() {
			t.Errorf("%s: length %d, want %d", path, got.Len(), want.Len())
			return
		}
		for i := range want.Len() {
			sameBits(t, fmt.Sprintf("%s[%d]", path, i), got.Index(i), want.Index(i))
		}
	case reflect.Struct:
		for i := range want.NumField() {
			sameBits(t, path+"."+want.Type().Field(i).Name, got.Field(i), want.Field(i))
		}
	case reflect.Bool, reflect.Int, reflect.String:
		if !got.Equal(want) {
			t.Errorf("%s = %v, want %v", path, got, want)
		}
	default:
		t.Fatalf("%s: uncompared kind %v", path, want.Kind())
	}
}
