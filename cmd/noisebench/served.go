package main

import (
	"bytes"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/clarinet"
	"repro/internal/delaynoise"
	"repro/internal/noised"
	"repro/internal/noised/client"
	"repro/internal/noisegw"
	"repro/internal/resilience"
	"repro/internal/warmstore"
	"repro/internal/workload"
)

// The served workload: one load generator in this process sends an
// open-loop request mix through the client to a gateway over two
// replicas, all on loopback. One request in mix is fresh (new nets, new
// request_id) and must be analyzed; the others resubmit the request_id
// of the fresh request sent replayLag fresh requests earlier, which
// the replicas serve from their journals without analysis. With one in
// five fresh, the median request sits in the middle of the replays and
// the 90th percentile in the middle of the fresh requests, so
// latency_p50_ms follows the serving layers and latency_p90_ms the
// analysis behind them, each away from the edge between the two.

const (
	servedReplicas = 2
	slo            = time.Second // within_slo_pct limit; failures count as misses
)

// cluster is the gateway and its replicas, each behind a loopback
// server.
type cluster struct {
	replicas []*noised.Server
	servers  []*httptest.Server // replicas first, the gateway last
	gateway  *httptest.Server
	gwClient *http.Client
}

func (c *cluster) close() {
	for i := len(c.servers) - 1; i >= 0; i-- {
		c.servers[i].Close()
	}
	c.gwClient.CloseIdleConnections()
}

// request is one fresh request: its nets, serialized body and identity.
type request struct {
	id    string
	body  []byte
	names []string
	cases []*delaynoise.Case
}

// servedInputs is what set-up prepares.
type servedInputs struct {
	store *warmstore.Store
	cl    *cluster
	fresh []request
}

func runServedGateway(r *run) error {
	r.rate = r.sz.rate
	r.workers = servedReplicas // one analysis worker per replica
	var in *servedInputs
	for k := 0; k < r.sz.setups; k++ {
		start := time.Now()
		next, err := r.setupServed(k)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
		if in != nil {
			in.cl.close()
		}
		in = next
	}
	defer in.cl.close()
	for _, s := range in.cl.replicas {
		r.regs = append(r.regs, s.Metrics())
	}
	lg, err := r.load(in)
	if err != nil {
		return err
	}
	r.rounds = 1
	return r.verifyServed(in, lg)
}

// setupServed builds the receiver tables into a fresh warm store, boots
// the replicas warm from it and the gateway in front of them, and
// serializes every fresh request the run can send.
func (r *run) setupServed(k int) (*servedInputs, error) {
	sp := r.tr.begin(spanSetup, 0, "")
	defer sp.end()
	in := &servedInputs{}
	tool, err := clarinet.New(r.lib, clarinet.Config{Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		return nil, err
	}
	if err := buildTables(r.ctx, tool.Session(), r.lib, r.sz.receivers, runtime.GOMAXPROCS(0), r.tr, sp.id()); err != nil {
		return nil, err
	}
	storeDir := filepath.Join(r.dir, fmt.Sprintf("warm-%d", k))
	if in.store, err = warmstore.Open(storeDir, nil); err != nil {
		return nil, err
	}
	save := r.tr.begin(spanSaveWarm, sp.id(), "")
	err = tool.Session().SaveWarm(in.store)
	save.end()
	if err != nil {
		return nil, err
	}

	in.cl = &cluster{}
	var urls []string
	for i := 0; i < servedReplicas; i++ {
		journalDir := filepath.Join(r.dir, fmt.Sprintf("journal-%d-%d", k, i))
		if err := os.MkdirAll(journalDir, 0o755); err != nil {
			in.cl.close()
			return nil, err
		}
		srv, err := noised.New(noised.Config{
			Hold:         delaynoise.HoldTransient,
			Resilience:   resilience.DefaultPolicy(),
			Workers:      1,
			PrecharGrid:  tool.Cfg.PrecharGrid,
			JournalDir:   journalDir,
			JournalCodec: netJournal{st: &r.journal, tr: r.tr},
			WarmStoreDir: storeDir,
		})
		if err != nil {
			in.cl.close()
			return nil, err
		}
		ts := httptest.NewServer(r.tr.handler(spanReplica, srv.Handler()))
		in.cl.replicas = append(in.cl.replicas, srv)
		in.cl.servers = append(in.cl.servers, ts)
		urls = append(urls, ts.URL)
	}
	in.cl.gwClient = &http.Client{Transport: r.tr.transport(spanSubrequest, &http.Transport{})}
	gw, err := noisegw.New(noisegw.Config{Replicas: urls, HTTPClient: in.cl.gwClient, Logf: log.Printf})
	if err != nil {
		in.cl.close()
		return nil, err
	}
	in.cl.gateway = httptest.NewServer(r.tr.handler(spanGateway, gw.Handler()))
	in.cl.servers = append(in.cl.servers, in.cl.gateway)

	slots := int(math.Ceil((r.sz.warmup + r.seconds).Seconds() * r.sz.rate))
	for f := 0; f < (slots+r.sz.mix-1)/r.sz.mix; f++ {
		req := request{id: fmt.Sprintf("nb%d-f%d", r.seed, f)}
		for i := 0; i < r.sz.roundItems; i++ {
			g := f*r.sz.roundItems + i
			gen := workload.NewGenerator(r.lib, stratified(workload.DefaultProfile(), r.sz.receivers, g), subSeed(r.seed, g))
			c, err := gen.Next(g)
			if err != nil {
				in.cl.close()
				return nil, err
			}
			req.names = append(req.names, fmt.Sprintf("f%d.n%d", f, i))
			req.cases = append(req.cases, c)
		}
		var buf bytes.Buffer
		if err := workload.Save(&buf, r.lib.Tech.Name, req.names, req.cases); err != nil {
			in.cl.close()
			return nil, err
		}
		req.body = buf.Bytes()
		in.fresh = append(in.fresh, req)
	}
	return in, nil
}

// outcome is one sent request as the load generator saw it.
type outcome struct {
	slot     int
	fresh    int // index of the fresh request it sent or replayed
	replay   bool
	measured bool // due after the warm-up
	latency  time.Duration
	late     time.Duration // how far behind its due time a sender picked it up
	err      error
	attempts int
	wire     string // sorted wire records of the response
	nets     int
}

type loadResult struct {
	outcomes []outcome
	window   time.Duration // from the end of warm-up to the last measured completion
}

// load drives the open loop: slot i is due at i/rate; slots during the
// warm-up are sent but not measured, and replay slots with no fresh
// request far enough behind them yet (all within the warm-up) are
// skipped. At most GOMAXPROCS
// requests are in flight; when all senders are busy the generator runs
// late, and a request's latency still counts from its due time.
func (r *run) load(in *servedInputs) (*loadResult, error) {
	cl, err := client.New(client.Config{
		BaseURL:    in.cl.gateway.URL,
		HTTPClient: &http.Client{Transport: r.tr.transport(spanClientHTTP, &http.Transport{MaxConnsPerHost: runtime.GOMAXPROCS(0)})},
		Wire:       "colblob",
	})
	if err != nil {
		return nil, err
	}
	type job struct {
		o   outcome
		due time.Time
	}
	freshDone := make([]chan struct{}, len(in.fresh))
	for i := range freshDone {
		freshDone[i] = make(chan struct{})
	}
	var mu sync.Mutex
	res := &loadResult{}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				o := j.o
				o.late = time.Since(j.due)
				req := in.fresh[o.fresh]
				if o.replay {
					select {
					case <-freshDone[o.fresh]:
					case <-r.ctx.Done():
					}
				}
				sp := r.tr.begin(spanClient, 0, req.id)
				got, err := cl.Analyze(withSpan(r.ctx, sp), req.body, client.Options{RequestID: req.id}, nil)
				sp.end()
				o.latency = time.Since(j.due)
				o.err = err
				if got != nil {
					o.attempts = got.Attempts
					o.nets = len(got.Reports)
					lines := make([]string, len(got.Reports))
					for i, rep := range got.Reports {
						lines[i] = wireJSON(rep)
						if rep.Err != nil && o.err == nil {
							o.err = rep.Err
						}
					}
					sort.Strings(lines)
					o.wire = strings.Join(lines, "\n")
				}
				if o.err == nil && o.nets != len(req.names) {
					o.err = fmt.Errorf("%d of %d nets answered", o.nets, len(req.names))
				}
				if !o.replay {
					close(freshDone[o.fresh])
				}
				mu.Lock()
				res.outcomes = append(res.outcomes, o)
				mu.Unlock()
			}
		}()
	}

	start := time.Now()
	measureFrom := start.Add(r.sz.warmup)
	slots := int(math.Ceil((r.sz.warmup + r.seconds).Seconds() * r.sz.rate))
	windowStarted := false
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i := 0; i < slots && r.ctx.Err() == nil; i++ {
		o := outcome{slot: i, fresh: i / r.sz.mix}
		if i%r.sz.mix != 0 {
			o.replay = true
			o.fresh -= r.sz.replayLag
			if o.fresh < 0 {
				continue
			}
		}
		due := start.Add(time.Duration(float64(i) / r.sz.rate * float64(time.Second)))
		o.measured = !due.Before(measureFrom)
		timer.Reset(time.Until(due))
		select {
		case <-timer.C:
		case <-r.ctx.Done():
		}
		if o.measured && !windowStarted {
			r.markWindow()
			windowStarted = true
		}
		select {
		case jobs <- job{o: o, due: due}:
		case <-r.ctx.Done():
		}
	}
	close(jobs)
	wg.Wait()
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	res.window = time.Since(measureFrom)
	return res, nil
}

// verifyServed turns the load generator's outcomes into the run's
// metrics and checks: every request answered in full, every replay
// byte-identical to its fresh response, and the first fresh requests'
// nets byte-identical to an in-process clarinet run on a session
// loaded from the same warm store.
func (r *run) verifyServed(in *servedInputs, lg *loadResult) error {
	sort.Slice(lg.outcomes, func(i, j int) bool { return lg.outcomes[i].slot < lg.outcomes[j].slot })
	fresh := map[int]string{}
	for _, o := range lg.outcomes {
		if !o.replay && o.err == nil {
			fresh[o.fresh] = o.wire
		}
	}
	var freshLat, replayLat, late []float64
	withinSLO, replayBad, replays, retried := 0, 0, 0, 0
	for _, o := range lg.outcomes {
		if o.replay && o.err == nil {
			replays++
			if o.wire != fresh[o.fresh] {
				replayBad++
			}
		}
		if !o.measured {
			continue
		}
		r.attempted++
		ms := float64(o.latency.Nanoseconds()) / 1e6
		late = append(late, float64(o.late.Nanoseconds())/1e6)
		if o.attempts > 1 {
			retried++
		}
		if o.err != nil {
			r.fail(o.err)
			continue
		}
		r.latencies = append(r.latencies, ms)
		if o.latency <= slo {
			withinSLO++
		}
		if o.replay {
			replayLat = append(replayLat, ms)
		} else {
			freshLat = append(freshLat, ms)
		}
	}
	r.measured = lg.window
	for f := range in.fresh {
		if wire, ok := fresh[f]; ok {
			fmt.Fprintf(r.digest, "%d\n%s\n", f, wire)
		}
	}
	r.check("requests", r.failed == 0, "%d of %d measured requests failed", r.failed, r.attempted)
	r.check("replay_identical", replayBad == 0 && replays > 0, "%d of %d replays differ from their fresh response", replayBad, replays)
	r.info["fresh_p50_ms"] = percentile(freshLat, 0.5)
	r.info["fresh_p90_ms"] = percentile(freshLat, 0.9)
	r.info["replay_p50_ms"] = percentile(replayLat, 0.5)
	r.info["replay_p90_ms"] = percentile(replayLat, 0.9)
	r.info["within_slo_pct"] = 100 * float64(withinSLO) / float64(max(1, r.attempted))
	r.info["loadgen_late_p90_ms"] = percentile(late, 0.9)
	r.info["requests_retried"] = retried
	r.info["samples_fresh"] = len(freshLat)
	r.info["samples_replay"] = len(replayLat)

	// In-process reference: the same nets on a local session warm-loaded
	// from the replicas' store.
	var names []string
	var cases []*delaynoise.Case
	var want []string
	for f := 0; len(names) < r.sz.verify && f < len(in.fresh); f++ {
		wire, ok := fresh[f]
		if !ok {
			continue
		}
		names = append(names, in.fresh[f].names...)
		cases = append(cases, in.fresh[f].cases...)
		want = append(want, strings.Split(wire, "\n")...)
	}
	tool, err := clarinet.New(r.lib, clarinet.Config{Hold: delaynoise.HoldTransient, Align: delaynoise.AlignPrechar,
		Workers: runtime.GOMAXPROCS(0), Resilience: resilience.DefaultPolicy()})
	if err != nil {
		return err
	}
	if err := loadWarm(tool.Session(), in.store); err != nil {
		return err
	}
	local := tool.AnalyzeBatch(r.ctx, names, cases, nil, nil)
	got := make([]string, len(local))
	for i, rep := range local {
		got[i] = wireJSON(rep)
	}
	sort.Strings(got)
	sort.Strings(want)
	r.check("served_matches_inprocess", len(got) > 0 && strings.Join(got, "\n") == strings.Join(want, "\n"),
		"%d served nets against an in-process run", len(got))
	if len(local) > 0 {
		i := exactIndex(local)
		r.ref = &refNet{c: cases[i], res: local[i].Res, report: local[i], align: delaynoise.AlignPrechar, store: in.store}
	}
	return nil
}
