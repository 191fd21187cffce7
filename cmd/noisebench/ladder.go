package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/align"
	"repro/internal/clarinet"
	"repro/internal/delaynoise"
	"repro/internal/gatesim"
	"repro/internal/holdres"
	"repro/internal/lsim"
	"repro/internal/mna"
	"repro/internal/mor"
	"repro/internal/noised"
	"repro/internal/noised/client"
	"repro/internal/noisegw"
	"repro/internal/thevenin"
	"repro/internal/warmstore"
	"repro/internal/waveform"
	"repro/internal/workload"
)

// The layer ladder times one public entry point per layer on the
// workload's reference net (its first net analyzed exactly, without
// rescue). Multiplying a
// rung's cost by how often a net calls it (the per-net counters) gives
// the rung's share of the end-to-end time, e.g. receiver_sim_us times
// align.receiver_sims_per_net against batch-exhaustive throughput.

// refNet is the reference net of a run: its case, an analysis result
// with waveforms (nil: the ladder analyzes it), the report as the
// journal carries it, the workload's alignment method and its table
// store (nil: none).
type refNet struct {
	c      *delaynoise.Case
	res    *delaynoise.Result
	report clarinet.NetReport
	align  delaynoise.AlignMethod
	store  *warmstore.Store
}

const (
	ladderBudget = 1500 * time.Millisecond // per rung, once 3 samples are in
	ladderSample = 200 * time.Microsecond  // fast calls are batched to at least this
	ladderOrder  = 8                       // PRIMA order of the mor rung
	ladderGrid   = 21                      // the exhaustive alignment grid delaynoise defaults to
)

// sample returns the median cost of fn in microseconds per call: at
// least r.sz.ladderMin samples, or 3 once ladderBudget is spent. Calls
// faster than ladderSample are batched so one sample is long enough to
// time. The first, calibrating call is not counted.
func (r *run) sample(fn func() error) (float64, error) {
	start := time.Now()
	if err := fn(); err != nil {
		return 0, err
	}
	reps := 1
	if d := time.Since(start); d < ladderSample {
		reps = int(ladderSample/max(d, time.Microsecond)) + 1
	}
	var xs []float64
	begin := time.Now()
	for len(xs) < r.sz.ladderMin && (len(xs) < 3 || time.Since(begin) < ladderBudget) {
		if err := r.ctx.Err(); err != nil {
			return 0, err
		}
		t := time.Now()
		for i := 0; i < reps; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		xs = append(xs, float64(time.Since(t).Nanoseconds())/1e3/float64(reps))
	}
	return median(xs), nil
}

// ladder times every rung and stores the results for perLayer.
func (r *run) ladder() error {
	ref := r.ref
	c := ref.c
	ctx := r.ctx
	vdd := r.lib.Tech.Vdd
	tool, err := clarinet.New(r.lib, clarinet.Config{})
	if err != nil {
		return err
	}
	if _, err := tool.Session().LoadWarm(ref.store); err != nil {
		return err
	}
	tab, err := tool.Session().Table(ctx, c.Receiver, c.Victim.OutputRising)
	if err != nil {
		return err
	}
	opt := delaynoise.Options{Hold: delaynoise.HoldTransient, Align: ref.align}
	if opt.Align == delaynoise.AlignPrechar {
		opt.Table = tab
	}
	res := ref.res
	if res == nil {
		if res, err = delaynoise.AnalyzeContext(ctx, c, opt); err != nil {
			return err
		}
		ref.report = clarinet.NetReport{Name: "ref", Res: res}
	}

	ckt := c.Net.Circuit.Clone()
	ckt.AddDriver("d", c.Net.VictimIn, waveform.Ramp(c.Victim.InputStart, c.Victim.InputSlew, 0, vdd), res.VictimRth)
	for k, in := range c.Net.AggIn {
		ckt.AddDriver(fmt.Sprintf("h%d", k), in, waveform.Constant(vdd), res.VictimRth)
	}
	sys, err := mna.Build(ckt)
	if err != nil {
		return err
	}
	lopt := lsim.Options{TStop: 3e-9, Step: 1e-12, InitDC: true}
	inRising := c.Victim.Cell.InputRisingFor(c.Victim.OutputRising)
	vn := res.Composite.Shift(res.TPeak + gatesim.InputStart - c.Victim.InputStart)
	obj := align.Objective{Receiver: c.Receiver, Load: c.ReceiverLoad, VictimRising: c.Victim.OutputRising, Ctx: ctx}
	edge, err := align.EdgeRate(res.NoiselessRecvIn, vdd, c.Victim.OutputRising)
	if err != nil {
		return err
	}
	rec := clarinet.ToWireRecord(ref.report)
	var encoded bytes.Buffer
	if err := clarinet.Binary.NewWriter(&encoded).WriteRecord(rec); err != nil {
		return err
	}

	r.ladderVals = map[string]float64{}
	rungs := []struct {
		name string
		fn   func() error
	}{
		{mLadderLsim, func() error { _, err := lsim.RunContext(ctx, sys, lopt); return err }},
		{mLadderReduce, func() error { _, err := mor.ReduceContext(ctx, sys, ladderOrder); return err }},
		{mLadderThevenin, func() error {
			_, _, err := thevenin.FitContext(ctx, c.Victim.Cell, c.Victim.InputSlew, inRising, res.VictimCeff)
			return err
		}},
		{mLadderHoldres, func() error {
			_, err := holdres.ComputeContext(ctx, c.Victim.Cell, c.Victim.InputSlew, inRising, res.VictimCeff, res.VictimRth, vn)
			return err
		}},
		{mLadderReceiver, func() error { _, err := obj.Output(res.NoisyRecvIn); return err }},
		{mLadderExhaustive, func() error {
			_, err := obj.ExhaustiveWorst(res.NoiselessRecvIn, res.Composite, ladderGrid)
			return err
		}},
		{mLadderPrechar, func() error {
			_, err := tab.PredictPeakTime(res.NoiselessRecvIn, edge, res.Pulse.Width, math.Abs(res.Pulse.Height), c.ReceiverLoad)
			return err
		}},
		{mLadderAnalyze, func() error { _, err := delaynoise.AnalyzeContext(ctx, c, opt); return err }},
		{mLadderEncode, func() error {
			var buf bytes.Buffer
			return clarinet.Binary.NewWriter(&buf).WriteRecord(rec)
		}},
		{mLadderDecode, func() error {
			_, err := clarinet.Binary.NewReader(bytes.NewReader(encoded.Bytes())).Next()
			return err
		}},
		{mLadderGolden, func() error {
			_, err := delaynoise.GoldenAtShiftsContext(ctx, c, delaynoise.PeakShifts(res.NoisePeakTimes, res.TPeak))
			return err
		}},
	}
	for _, rung := range rungs {
		v, err := r.sample(rung.fn)
		if err != nil {
			return fmt.Errorf("%s: %w", rung.name, err)
		}
		r.ladderVals[rung.name] = v
	}
	return r.ladderServing(c)
}

// ladderServing times a replayed one-net request against a replica
// directly and through a gateway: the serving layers, the journal read
// and the wire, with no analysis behind them.
func (r *run) ladderServing(c *delaynoise.Case) error {
	var body bytes.Buffer
	if err := workload.Save(&body, r.lib.Tech.Name, []string{"ref"}, []*delaynoise.Case{c}); err != nil {
		return err
	}
	journalDir := filepath.Join(r.dir, "ladder-journal")
	if err := os.MkdirAll(journalDir, 0o755); err != nil {
		return err
	}
	srv, err := noised.New(noised.Config{Hold: delaynoise.HoldTransient, Workers: 1, JournalDir: journalDir})
	if err != nil {
		return err
	}
	replica := httptest.NewServer(srv.Handler())
	defer replica.Close()
	gw, err := noisegw.New(noisegw.Config{Replicas: []string{replica.URL}, HTTPClient: &http.Client{Transport: &http.Transport{}}})
	if err != nil {
		return err
	}
	gateway := httptest.NewServer(gw.Handler())
	defer gateway.Close()
	for _, hop := range []struct {
		name, url, id string
	}{
		{mLadderNoised, replica.URL, "ladder-replica"},
		{mLadderGateway, gateway.URL, "ladder-gateway"},
	} {
		tr := &http.Transport{}
		cl, err := client.New(client.Config{BaseURL: hop.url, HTTPClient: &http.Client{Transport: tr}, Wire: "colblob"})
		if err != nil {
			return err
		}
		call := func() error {
			res, err := cl.Analyze(r.ctx, body.Bytes(), client.Options{Align: "input", RequestID: hop.id}, nil)
			if err == nil && (len(res.Reports) != 1 || res.Reports[0].Err != nil) {
				err = fmt.Errorf("reference request answered %d reports", len(res.Reports))
			}
			return err
		}
		// The first call analyzes and journals; every timed call replays.
		if err := call(); err != nil {
			return err
		}
		v, err := r.sample(call)
		tr.CloseIdleConnections()
		if err != nil {
			return fmt.Errorf("%s: %w", hop.name, err)
		}
		r.ladderVals[hop.name] = v
	}
	return nil
}
