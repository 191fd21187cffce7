package noisegw

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/noised"
)

// The coordinator. One run fans a request's units — cases or whole
// paths — out as per-replica shard streams, merges their records into a
// single sink channel, and recovers from failures by re-sharding
// unfinished units onto survivors.
//
// Exactly-once delivery rests on one invariant: a record reaches the
// sink at most once, under r.mu, and a unit finishes only on a real
// outcome — success or a definitive failure. Canceled placeholders (a
// net cut off mid-run, a path a draining replica abandoned) never
// finish a unit, so it stays eligible for the reshard that completes
// it. Replays — from replica-side journal resume after a shed retry, or
// a replica that sends one record twice — drop at the merge. Workers never
// fabricate failures for units they could not finish; the handler
// reports those only after every worker has exited, when no late stream
// can contradict it.

// shedJitter is the randomness seam of the shed backoff; tests pin it.
var shedJitter = rand.Float64

// A unit is what the gateway shards and merges: a case or a path. Its
// value is one request's, holding that request's merge state; the run
// calls merge, adopt and finished under its mutex, so they must not
// block.
type unit[U, R, S any] interface {
	// name identifies u within the request; shardKey places it on the
	// replica ring.
	name(u U) string
	shardKey(u U) string
	// body serializes one shard as the replica route's request body.
	body(shard []U) ([]byte, error)
	// merge reports whether rec is new and goes to the client.
	merge(rec R) bool
	// adopt takes a sub-stream's terminal summary.
	adopt(sum *S)
	// finished reports whether the named unit has its real outcome.
	finished(name string) bool
	// refuse gives u, which a replica refused on its own, its real
	// outcome: a failure carrying the replica's message. It returns a
	// record for the client when the failure takes one.
	refuse(u U, msg string) (rec R, send bool)
}

// kind is what is fixed per unit type: the replica route (its wire)
// and the sub-request ID family.
type kind[R, S any] struct {
	route  *noised.Route[R, S]
	noun   string // "nets", "paths" (logs)
	family string // sub-request ID infix
}

// run is the per-request coordinator state.
type run[U, R, S any] struct {
	g    *Gateway
	ctx  context.Context
	kind *kind[R, S]
	unit unit[U, R, S]

	query     url.Values // forwarded analysis options (no request_id)
	requestID string     // the client's request_id ("" = unjournaled)

	// sink carries merged records to the handler's stream loop; its
	// buffer lets shard readers run ahead of a slow client write. It is
	// closed by the closer goroutine once every worker has exited.
	sink chan R

	mu sync.Mutex // guards the unit's merge state
	wg sync.WaitGroup
}

func newRun[U, R, S any](g *Gateway, ctx context.Context, opt noised.Options, k *kind[R, S], u unit[U, R, S]) *run[U, R, S] {
	return &run[U, R, S]{
		g:         g,
		ctx:       ctx,
		kind:      k,
		unit:      u,
		query:     opt.Forward,
		requestID: opt.RequestID,
		sink:      make(chan R, 64),
	}
}

// scatter shards the units over the currently healthy replicas and
// spawns one worker per shard, plus the closer that ends the sink when
// the last worker — initial or reshard — exits. It returns the
// sink as the request's record source; an empty fleet is a 503.
func (r *run[U, R, S]) scatter(units []U) (<-chan R, error) {
	names := r.g.set.healthyNames()
	if len(names) == 0 {
		r.g.reg.Counter(mGwRejectedNoReplicas).Inc()
		return nil, &noised.StatusError{Code: http.StatusServiceUnavailable, Err: errNoReplicas}
	}
	for name, part := range shard(units, names, r.unit.shardKey) {
		r.spawn(name, part, 0)
	}
	// The closer is bounded by the workers, which are bounded by r.ctx:
	// every worker path returns once the context dies, wg drains, and
	// the close lets the handler's stream loop finish.
	//lint:ignore noiselint/goleak joins r.wg, whose workers all exit once r.ctx dies; the close unblocks the merge loop
	go func() {
		r.wg.Wait()
		close(r.sink)
	}()
	return r.sink, nil
}

func (r *run[U, R, S]) spawn(replica string, units []U, attempt int) {
	r.wg.Add(1)
	//lint:ignore noiselint/goleak runShard defers wg.Done and every blocking path inside it selects on r.ctx; the closer joins the wg
	go r.runShard(replica, units, attempt)
}

// runShard drives one shard against one replica to completion, then
// re-shards whatever remains unfinished. attempt counts the reshard
// hops this slice of work has taken.
func (r *run[U, R, S]) runShard(replica string, units []U, attempt int) {
	defer r.wg.Done()
	leftover, avoid := r.streamShard(replica, units, attempt)
	leftover = r.unfinished(leftover)
	if len(leftover) == 0 || r.ctx.Err() != nil {
		return
	}
	cfg := &r.g.cfg
	if attempt >= cfg.MaxReshards {
		cfg.Logf("noisegw: %d %s exhausted their %d reshard hops", len(leftover), r.kind.noun, cfg.MaxReshards)
		return // the handler reports them after wg.Wait
	}
	targets := r.g.set.healthyNames()
	if avoid {
		targets = r.g.set.healthyExcept(replica)
	}
	if len(targets) == 0 {
		cfg.Logf("noisegw: %d %s unassigned: no healthy replicas to reshard onto", len(leftover), r.kind.noun)
		return
	}
	r.g.reg.Counter(mGwReshards).Inc()
	cfg.Logf("noisegw: resharding %d %s from %s over %d replicas (hop %d)",
		len(leftover), r.kind.noun, replica, len(targets), attempt+1)
	for name, part := range shard(leftover, targets, r.unit.shardKey) {
		r.spawn(name, part, attempt+1)
	}
}

// streamShard runs the shard's sub-request against one replica,
// absorbing shed (503) responses with capped jittered backoff. avoid
// reports that the reshard should go elsewhere: true after a replica
// failure (struck) or an exhausted shed budget (saturated). A shard the
// replica refuses as too large (413) is a size signal, not a failure:
// its halves go to the same replica as new shards, with no strike and
// no reshard hop spent. A single unit still refused may fit another
// replica's limits, so it reshards elsewhere, again with no strike; it
// fails with the replica's message once no other healthy replica is
// left or its hops are spent.
func (r *run[U, R, S]) streamShard(replica string, units []U, attempt int) (leftover []U, avoid bool) {
	body, err := r.unit.body(units)
	if err != nil {
		r.g.cfg.Logf("noisegw: shard body: %v", err)
		return units, true
	}
	sheds := 0
	for {
		outcome, retryAfter, refusal := r.streamOnce(replica, units, body)
		switch outcome {
		case streamDone:
			r.g.set.clearStrikes(replica)
			// Normally nothing is left; canceled units (replica
			// deadline, drain) remain for the caller to reshard.
			return units, false
		case streamShed:
			sheds++
			if sheds > r.g.cfg.ShedRetries {
				return units, true
			}
			if !r.sleepShed(sheds, retryAfter) {
				return nil, false // run context died while backing off
			}
		case streamFailed:
			r.g.set.strike(replica)
			return units, true
		case streamTooLarge:
			switch {
			case len(units) > 1:
				r.g.reg.Counter(mGwShardSplit).Inc()
				r.spawn(replica, units[:len(units)/2], attempt)
				r.spawn(replica, units[len(units)/2:], attempt)
			case attempt < r.g.cfg.MaxReshards && len(r.g.set.healthyExcept(replica)) > 0:
				return units, true
			default:
				r.refuse(units[0], refusal)
			}
			return nil, false
		default: // streamCtxDone
			return nil, false
		}
	}
}

// sleepShed backs off between shed retries: exponential from
// ShedBackoff, floored by the replica's capped Retry-After hint,
// jittered ±50%. Reports false when the run context died first.
func (r *run[U, R, S]) sleepShed(sheds int, retryAfter time.Duration) bool {
	cfg := &r.g.cfg
	d := cfg.ShedBackoff << (sheds - 1)
	if d > maxShedBackoff || d <= 0 {
		d = maxShedBackoff
	}
	if retryAfter > maxShedBackoff {
		retryAfter = maxShedBackoff
	}
	if retryAfter > d {
		d = retryAfter
	}
	d = time.Duration(float64(d) * (0.5 + shedJitter()))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-r.ctx.Done():
		return false
	}
}

// streamOutcome classifies one sub-request.
type streamOutcome int

const (
	streamDone     streamOutcome = iota // summary arrived; the stream is complete
	streamShed                          // 503/429: the replica asked us to back off
	streamFailed                        // connect error, torn tail, or stall: strike and reshard
	streamTooLarge                      // 413: the shard exceeds the replica's request size
	streamCtxDone                       // the run's own context died
)

// streamEvent is one parsed element of a shard stream.
type streamEvent[R, S any] struct {
	rec R
	sum *S
	err error
}

// streamOnce opens one sub-request and consumes its stream, merging
// records as they arrive; a 413 refusal returns the replica's message.
// The watchdog turns silence into failure: any
// event (records and heartbeats alike) resets the stall timer, so a
// stream that goes quiet past its budget (see watchdog) — a SIGKILLed
// replica whose socket lingers, a stalled response — is canceled and
// counted.
func (r *run[U, R, S]) streamOnce(replica string, units []U, body []byte) (streamOutcome, time.Duration, string) {
	subctx, subcancel := context.WithCancel(r.ctx)
	defer subcancel()
	shardStart := time.Now()

	u := replica + r.kind.route.Path
	if q := r.subQuery(units); q != "" {
		u += "?" + q
	}
	req, err := http.NewRequestWithContext(subctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return streamFailed, 0, ""
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.g.client.Do(req)
	if err != nil {
		if r.ctx.Err() != nil {
			return streamCtxDone, 0, ""
		}
		return streamFailed, 0, ""
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusServiceUnavailable, http.StatusTooManyRequests:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
		r.g.reg.Counter(mGwShardShed).Inc()
		return streamShed, noised.ParseRetryAfter(resp.Header.Get("Retry-After")), ""
	case http.StatusRequestEntityTooLarge:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return streamTooLarge, 0, strings.TrimSpace(string(msg))
	default:
		// The replica rejected a request the gateway already validated —
		// a version skew or a bug, not load. Treat it as a failure so
		// the work moves elsewhere.
		r.g.cfg.Logf("noisegw: replica %s answered %s on %s", replica, resp.Status, r.kind.route.Path)
		return streamFailed, 0, ""
	}
	r.g.reg.Counter(mGwShardStreams).Inc()

	events := make(chan streamEvent[R, S])
	// The reader is bounded by subctx (canceled on every return path
	// above/below): each send selects on it, and body reads unblock
	// when the request context dies.
	go r.readStream(subctx, resp.Body, events)

	budget := r.g.watchdog(resp.Header)
	stall := time.NewTimer(budget)
	defer stall.Stop()
	for {
		select {
		case ev, ok := <-events:
			if !ok || ev.err != nil {
				// EOF without a summary, a scan error, a torn frame: the
				// replica died mid-stream.
				r.g.reg.Counter(mGwShardTorn).Inc()
				return streamFailed, 0, ""
			}
			if !stall.Stop() {
				select {
				case <-stall.C:
				default:
				}
			}
			stall.Reset(budget)
			if ev.sum != nil {
				r.mu.Lock()
				r.unit.adopt(ev.sum)
				r.mu.Unlock()
				r.g.reg.Histogram(mGwShardLatency).Observe(time.Since(shardStart))
				return streamDone, 0, ""
			}
			r.merge(ev.rec)
		case <-stall.C:
			r.g.reg.Counter(mGwShardStalled).Inc()
			r.g.cfg.Logf("noisegw: replica %s stream stalled past %v", replica, budget)
			return streamFailed, 0, ""
		case <-r.ctx.Done():
			return streamCtxDone, 0, ""
		}
	}
}

// watchdog is a shard stream's silence budget: StallTimeout, raised to
// three of the heartbeat intervals the replica advertises, so a replica
// that heartbeats on schedule is never cut however slow its nets are.
func (g *Gateway) watchdog(h http.Header) time.Duration {
	budget := g.cfg.StallTimeout
	if hb, err := time.ParseDuration(h.Get(noised.HeartbeatHeader)); err == nil && 3*hb > budget {
		budget = 3 * hb
	}
	return budget
}

// readStream parses the replica's NDJSON stream into events. It is
// bounded by ctx: every send has a cancellation arm, and the channel
// close signals end of stream.
func (r *run[U, R, S]) readStream(ctx context.Context, body io.Reader, events chan<- streamEvent[R, S]) {
	defer close(events)
	send := func(ev streamEvent[R, S]) bool {
		select {
		case events <- ev:
			return true
		case <-ctx.Done():
			return false
		}
	}
	sc := r.kind.route.Scanner(body)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		rec, sum, err := r.kind.route.Decode(line)
		if err != nil {
			send(streamEvent[R, S]{err: fmt.Errorf("noisegw: malformed stream line: %w", err)})
			return
		}
		if !send(streamEvent[R, S]{rec: rec, sum: sum}) || sum != nil {
			return
		}
	}
	if err := sc.Err(); err != nil {
		send(streamEvent[R, S]{err: err})
	}
}

// merge forwards one record to the client if the unit's merge rule
// takes it (a first real outcome, not a replay or placeholder).
func (r *run[U, R, S]) merge(rec R) {
	r.mu.Lock()
	fresh := r.unit.merge(rec)
	r.mu.Unlock()
	if !fresh {
		return
	}
	select {
	case r.sink <- rec:
	case <-r.ctx.Done():
	}
}

// refuse finalizes a unit a replica refused on its own with the
// replica's message, forwarding the failure record if it takes one.
func (r *run[U, R, S]) refuse(u U, msg string) {
	r.mu.Lock()
	rec, send := r.unit.refuse(u, msg)
	r.mu.Unlock()
	if send {
		r.merge(rec)
	}
}

// unfinished filters units down to those without a real outcome.
func (r *run[U, R, S]) unfinished(units []U) []U {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []U
	for _, u := range units {
		if !r.unit.finished(r.unit.name(u)) {
			out = append(out, u)
		}
	}
	return out
}

// subQuery renders one shard's query string: the forwarded analysis
// options plus the derived sub-request ID.
func (r *run[U, R, S]) subQuery(units []U) string {
	q := url.Values{}
	for k, vs := range r.query {
		q[k] = vs
	}
	if id := r.subRequestID(units); id != "" {
		q.Set("request_id", id)
	}
	return q.Encode()
}

// subRequestID derives a stable per-shard journal identity from the
// client's request_id and the shard's unit names: a shed retry of the
// same shard presents the same ID, so the replica's journal replays
// what it already finished instead of re-analyzing it. A different
// shard (after a reshard) gets a different ID, so journals never mix
// shards, and the kind's family ("-s" nets, "-p" paths) keeps the two
// routes' IDs disjoint. Without a client ID there is no journaling.
func (r *run[U, R, S]) subRequestID(units []U) string {
	if r.requestID == "" {
		return ""
	}
	h := fnv.New64a()
	for _, u := range units {
		h.Write([]byte(r.unit.name(u)))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%s%s%08x", r.requestID, r.kind.family, h.Sum64()&0xffffffff)
}
