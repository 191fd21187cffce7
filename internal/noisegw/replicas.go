package noisegw

import (
	"context"
	"net/http"
	"sync"
	"time"

	"repro/internal/noised"
)

// Replica health. Each replica runs a small state machine driven by two
// evidence sources: the periodic /readyz probe and the outcome of real
// shard streams. Consecutive failures (circuit-breaker style) eject the
// replica — it stops receiving shards — for an exponentially growing
// backoff window; after the window a successful probe rejoins it with a
// clean slate. A shed (503) is not a failure: the replica is alive and
// telling us to back off, so it keeps its shard assignment and only
// the sub-request waits.

// replicaState is one replica's view in the health state machine.
type replicaState struct {
	name string // base URL, e.g. "http://127.0.0.1:9001"

	mu           sync.Mutex
	healthy      bool
	strikes      int           // consecutive failures while healthy
	ejectedUntil time.Time     // earliest rejoin probe while ejected
	backoff      time.Duration // next ejection's window
	instance     string        // last seen X-Noised-Instance
}

// replicaSet owns the gateway's replicas and their probe loop.
type replicaSet struct {
	g        *Gateway
	replicas []*replicaState // fixed order, as configured
}

func newReplicaSet(g *Gateway, names []string) *replicaSet {
	rs := &replicaSet{g: g}
	for _, n := range names {
		// Optimistic start: replicas are assumed healthy until a probe
		// or stream says otherwise, so the gateway serves immediately
		// after boot instead of 503ing until the first probe round.
		rs.replicas = append(rs.replicas, &replicaState{
			name:    n,
			healthy: true,
			backoff: g.cfg.EjectBackoff,
		})
	}
	g.reg.Gauge(mGwReplicasHealthy).Set(int64(len(names)))
	return rs
}

// healthyNames returns the replicas currently eligible for shards.
func (rs *replicaSet) healthyNames() []string {
	var out []string
	for _, r := range rs.replicas {
		r.mu.Lock()
		if r.healthy {
			out = append(out, r.name)
		}
		r.mu.Unlock()
	}
	return out
}

// healthyExcept returns the eligible replicas minus one — the reshard
// targets after that one failed mid-stream.
func (rs *replicaSet) healthyExcept(name string) []string {
	var out []string
	for _, r := range rs.replicas {
		r.mu.Lock()
		if r.healthy && r.name != name {
			out = append(out, r.name)
		}
		r.mu.Unlock()
	}
	return out
}

func (rs *replicaSet) byName(name string) *replicaState {
	for _, r := range rs.replicas {
		if r.name == name {
			return r
		}
	}
	return nil
}

// strike records one failure of a replica (failed probe, torn or
// stalled stream, connect error). MaxStrikes consecutive failures trip
// the breaker: the replica is ejected for its current backoff window,
// and the window doubles for the next trip.
func (rs *replicaSet) strike(name string) {
	r := rs.byName(name)
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.healthy {
		// Already ejected (e.g. a concurrent stream failed after the
		// probe tripped the breaker); push the window out, don't
		// double-count.
		r.ejectedUntil = time.Now().Add(r.backoff)
		return
	}
	r.strikes++
	if r.strikes < rs.g.cfg.MaxStrikes {
		return
	}
	r.healthy = false
	r.strikes = 0
	r.ejectedUntil = time.Now().Add(r.backoff)
	r.backoff *= 2
	if r.backoff > maxEjectBackoff {
		r.backoff = maxEjectBackoff
	}
	rs.g.reg.Counter(mGwReplicaEjections).Inc()
	rs.g.reg.Gauge(mGwReplicasHealthy).Dec()
	rs.g.cfg.Logf("noisegw: replica %s ejected (rejoin probe in %v)", name, time.Until(r.ejectedUntil).Round(time.Millisecond))
}

// clearStrikes resets the consecutive-failure count after a successful
// interaction with a healthy replica.
func (rs *replicaSet) clearStrikes(name string) {
	if r := rs.byName(name); r != nil {
		r.mu.Lock()
		r.strikes = 0
		r.mu.Unlock()
	}
}

// probeOnce probes every replica's /readyz once and advances the state
// machine: a healthy replica that fails is struck, an ejected replica
// past its backoff window that answers 200 rejoins with a clean slate,
// and an instance-ID change is counted as a restart.
func (rs *replicaSet) probeOnce(ctx context.Context) {
	for _, r := range rs.replicas {
		r.mu.Lock()
		healthy := r.healthy
		waiting := !healthy && time.Now().Before(r.ejectedUntil)
		r.mu.Unlock()
		if waiting {
			continue // still inside the ejection window
		}
		ok, instance := rs.g.probeReady(ctx, r.name)
		switch {
		case ok && healthy:
			rs.clearStrikes(r.name)
		case ok && !healthy:
			r.mu.Lock()
			r.healthy = true
			r.strikes = 0
			r.backoff = rs.g.cfg.EjectBackoff
			r.mu.Unlock()
			rs.g.reg.Counter(mGwReplicaRejoins).Inc()
			rs.g.reg.Gauge(mGwReplicasHealthy).Inc()
			rs.g.cfg.Logf("noisegw: replica %s rejoined", r.name)
		case !ok:
			rs.strike(r.name)
		}
		if ok && instance != "" {
			r.mu.Lock()
			prev := r.instance
			r.instance = instance
			r.mu.Unlock()
			if prev != "" && prev != instance {
				rs.g.reg.Counter(mGwReplicaRestarts).Inc()
				rs.g.cfg.Logf("noisegw: replica %s restarted (instance %s -> %s)", r.name, prev, instance)
			}
		}
	}
}

// probeLoop probes until ctx dies. Serve runs it for the gateway's
// lifetime; tests drive probeOnce directly.
func (rs *replicaSet) probeLoop(ctx context.Context) {
	t := time.NewTicker(rs.g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rs.probeOnce(ctx)
		}
	}
}

// probeReady checks one replica's /readyz, returning its reported
// instance identity alongside.
func (g *Gateway) probeReady(ctx context.Context, name string) (ok bool, instance string) {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, name+"/readyz", nil)
	if err != nil {
		return false, ""
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return false, ""
	}
	defer resp.Body.Close()
	return resp.StatusCode == http.StatusOK, resp.Header.Get(noised.InstanceHeader)
}

// replicaHealth is one replica's row in the gateway /healthz payload.
type replicaHealth struct {
	Name     string `json:"name"`
	Healthy  bool   `json:"healthy"`
	Strikes  int    `json:"strikes,omitempty"`
	Instance string `json:"instance,omitempty"`
	// RejoinInS is how long until an ejected replica's next rejoin
	// probe (absent while healthy).
	RejoinInS float64 `json:"rejoin_in_s,omitempty"`
}

func (rs *replicaSet) health() []replicaHealth {
	out := make([]replicaHealth, 0, len(rs.replicas))
	for _, r := range rs.replicas {
		r.mu.Lock()
		h := replicaHealth{Name: r.name, Healthy: r.healthy, Strikes: r.strikes, Instance: r.instance}
		if !r.healthy {
			if until := time.Until(r.ejectedUntil); until > 0 {
				h.RejoinInS = until.Seconds()
			}
		}
		r.mu.Unlock()
		out = append(out, h)
	}
	return out
}
