package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/workload"
)

// workloadDef is one benchmark workload: its default seed, its sizes,
// and the function that sets it up, measures it and checks it.
type workloadDef struct {
	name  string
	seed  int64
	sizes sizes
	run   func(r *run) error
}

// sizes are a workload's fixed dimensions. They are constants of the
// benchmark, not flags: a run varies only in its seed and its measured
// time. Tests shrink them to run every workload in miniature.
type sizes struct {
	setups     int      // set-ups per run; setup_s is their median
	roundItems int      // nets, base nets or paths per round; nets per fresh request
	repeats    int      // copies of each base net in a round
	stages     int      // stages per path
	receivers  []string // receiver cells, cycled through the generated nets
	roundTime  float64  // nominal seconds per round; a run plans seconds/roundTime rounds
	rate       float64  // served: requests per second (open loop)
	mix        int      // served: one request in mix is fresh, the rest are replays
	warmup     time.Duration
	replayLag  int // served: fresh requests between a fresh request and its replay
	verify     int // items re-run, or compared in-process, to check determinism
	golden     int // nets checked against the nonlinear golden simulation
	ladderMin  int // fewest samples per ladder entry
}

// Receiver cells with tables. The table set is built in set-up, so it
// is kept to two cells (four tables, about 3 s on two workers) to leave
// room for several set-ups per run.
var tableReceivers = []string{"NOR2X1", "INVX1"}

// workloads, in the order -workload all runs them. README.md records
// why each one exists.
var workloads = []*workloadDef{
	{
		// The paper's reference flow: exhaustive alignment, every cache
		// misses, no tables, no network.
		name: "batch-exhaustive",
		seed: 11,
		run:  runBatchExhaustive,
		sizes: sizes{
			setups: 9, roundItems: 16, roundTime: 6.5,
			receivers: workload.DefaultProfile().ReceiverCells,
			verify:    2, golden: 4, ladderMin: 20,
		},
	},
	{
		// Repeated bus structures under table-driven alignment: the read
		// side of the caches, tables warm-loaded from set-up.
		name: "batch-bus-prechar",
		seed: 13,
		run:  runBatchBusPrechar,
		sizes: sizes{
			setups: 3, roundItems: 24, repeats: 4, roundTime: 3.2,
			receivers: tableReceivers,
			verify:    2, golden: 2, ladderMin: 20,
		},
	},
	{
		// Open-loop traffic through the gateway to two replicas: fresh
		// requests analyze, replays come from the replica journals. A
		// fresh request carries one net: with two, their latency would
		// depend on whether the gateway put both on one replica.
		name: "served-gateway",
		seed: 5,
		run:  runServedGateway,
		sizes: sizes{
			setups: 3, roundItems: 1, rate: 16, mix: 5, warmup: 2 * time.Second, replayLag: 6,
			receivers: tableReceivers,
			verify:    8, golden: 0, ladderMin: 20,
		},
	},
	{
		// Chained stages under the DAG scheduler with waveform handoff.
		name: "paths-dag",
		seed: 47,
		run:  runPathsDAG,
		sizes: sizes{
			setups: 9, roundItems: 4, stages: 6, roundTime: 4.8,
			receivers: workload.DefaultProfile().ReceiverCells,
			verify:    1, golden: 0, ladderMin: 20,
		},
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (*workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// stratified returns the profile of generated net g: the receiver cell
// cycles through the run's receivers, and the victim cell and the
// aggressor count through the profile's ranges, so every seed draws
// the same mix of cells and coupling structures (which set most of a
// net's cost) and varies only the parasitics, slews and timing.
func stratified(base workload.Profile, receivers []string, g int) workload.Profile {
	p := base
	k := g / len(receivers)
	p.ReceiverCells = []string{receivers[g%len(receivers)]}
	p.VictimCells = []string{base.VictimCells[k%len(base.VictimCells)]}
	p.AggressorsMin += k % (base.AggressorsMax - base.AggressorsMin + 1)
	p.AggressorsMax = p.AggressorsMin
	return p
}

// viaFile writes the case file save produces into the run's scratch
// directory and hands it back to load, so inputs reach the tools
// through the file format and loader the CLI uses.
func (r *run) viaFile(name string, save func(io.Writer) error, load func(io.Reader) error) error {
	path := filepath.Join(r.dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if f, err = os.Open(path); err != nil {
		return err
	}
	defer f.Close()
	return load(f)
}

// buildTables pre-characterizes every receiver in both victim
// directions on the session, across the given number of workers. Each
// table build is a span under parent.
func buildTables(ctx context.Context, sess *engine.Session, lib *device.Library, receivers []string, workers int, tr *tracer, parent int64) error {
	type job struct {
		cell   *device.Cell
		rising bool
	}
	var all []job
	for _, name := range receivers {
		cell, err := lib.Cell(name)
		if err != nil {
			return err
		}
		all = append(all, job{cell, true}, job{cell, false})
	}
	jobs := make(chan job)
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				sp := tr.begin(spanTable, parent, "")
				_, err := sess.Table(ctx, j.cell, j.rising)
				sp.end()
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, j := range all {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	return firstErr
}
