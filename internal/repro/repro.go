// Package repro regenerates every figure of the paper's evaluation: one
// entry point per figure returning the data series the paper plots, plus
// text renderers used by cmd/figures and the benchmark harness. See
// DESIGN.md section 4 for the experiment index.
package repro

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/workload"
)

// Context carries the shared configuration of all experiments.
type Context struct {
	Tech *device.Technology
	Lib  *device.Library
	// Nets is the population size for the Fig 13/14 scatter experiments
	// (the paper uses 300).
	Nets int
	// Seed makes every experiment deterministic.
	Seed int64
}

// NewContext returns the default experiment context.
func NewContext() *Context {
	tech := device.Default180()
	return &Context{
		Tech: tech,
		Lib:  device.NewLibrary(tech),
		Nets: 300,
		Seed: 20010618, // DAC 2001 opened June 18
	}
}

// Quick returns a reduced-size context for tests and smoke runs.
func (c *Context) Quick(nets int) *Context {
	out := *c
	out.Nets = nets
	return &out
}

// population draws the Context's nets from gen, in order: the
// generator is sequential, so net i is the same case however the nets
// are analyzed afterwards.
func population(ctx *Context, gen *workload.Generator) ([]*delaynoise.Case, error) {
	cases := make([]*delaynoise.Case, ctx.Nets)
	for i := range cases {
		c, err := gen.Next(i)
		if err != nil {
			return nil, err
		}
		cases[i] = c
	}
	return cases, nil
}

// eachNet calls fn(i) for every i in [0, n) on GOMAXPROCS workers and
// returns once all calls have. Each call writes only its own net's
// slot, so results assemble in net order whatever the schedule.
func eachNet(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Series is one printable data series (a curve of a figure).
type Series struct {
	Name string
	X, Y []float64
}

// printSeries renders series as aligned columns.
func printSeries(w io.Writer, xLabel, yLabel string, scaleX, scaleY float64, ss ...Series) {
	for _, s := range ss {
		fmt.Fprintf(w, "# %s\n", s.Name)
		fmt.Fprintf(w, "%-16s %-16s\n", xLabel, yLabel)
		for i := range s.X {
			fmt.Fprintf(w, "%-16.4f %-16.4f\n", s.X[i]*scaleX, s.Y[i]*scaleY)
		}
		fmt.Fprintln(w)
	}
}
