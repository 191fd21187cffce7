// Command noisegw is the scatter-gather gateway over a fleet of noised
// replicas: one endpoint that accepts the same POST /v1/analyze a
// single replica does, shards each batch across the fleet by
// characterization bucket, and merges the per-net streams back with
// exactly-once delivery — resharding work off replicas that die, stall,
// or tear mid-stream onto the survivors.
//
// Usage:
//
//	noisegw -replica http://host1:8463 -replica http://host2:8463 ...
//	        [-addr 127.0.0.1:8462] [-addr-file path]
//	        [-max-inflight N] [-max-queue N] [-max-nets N]
//	        [-request-timeout 15m] [-drain-timeout 60s] [-retry-after 1s]
//	        [-heartbeat 10s]
//	        [-probe-interval 2s] [-max-strikes 3] [-eject-backoff 1s]
//	        [-stall-timeout 30s] [-hedge-after 0] [-max-reshards 4]
//
// The API mirrors noised:
//
//	POST /v1/analyze  streams merged per-net results (NDJSON or colblob)
//	POST /v1/analyze-path  streams merged stage records, whole paths
//	                  pinned to one replica each
//	GET  /healthz     gateway status plus per-replica health rows
//	GET  /readyz      200 while accepting and >=1 replica healthy
//	GET  /metrics     the gw.* metrics registry as JSON
//
// noisectl works against a gateway unchanged: point -addr at it.
// Replicas are health-probed every -probe-interval; -max-strikes
// consecutive failures eject one for an exponentially growing window
// (circuit breaking). -stall-timeout cuts streams that go silent — at
// the larger of it and three of the heartbeat intervals the replica
// advertises — and -hedge-after (0 disables) duplicates slow net
// shards onto a second replica. On the first SIGINT/SIGTERM the gateway drains; a second
// signal forces exit.
package main

import (
	"flag"
	"log"
	"net"
	"os"

	"repro/internal/cliutil"
	"repro/internal/noisegw"
)

// replicaList collects repeated -replica flags.
type replicaList []string

func (r *replicaList) String() string { return "" }
func (r *replicaList) Set(v string) error {
	*r = append(*r, v)
	return nil
}

func main() {
	cliutil.Init("noisegw")
	var replicas replicaList
	flag.Var(&replicas, "replica", "noised base URL (repeat once per replica)")
	addr := flag.String("addr", "127.0.0.1:8462", "listen address (:0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	maxInflight := flag.Int("max-inflight", noisegw.DefaultMaxInflight, "requests coordinated concurrently")
	maxQueue := flag.Int("max-queue", noisegw.DefaultMaxQueue, "admitted requests allowed to wait for a slot")
	maxNets := flag.Int("max-nets", noisegw.DefaultMaxNets, "per-request net-count limit")
	requestTimeout := flag.Duration("request-timeout", noisegw.DefaultMaxRequestTimeout, "per-request deadline cap (negative disables)")
	drainTimeout := flag.Duration("drain-timeout", noisegw.DefaultDrainTimeout, "graceful drain budget after the first signal")
	retryAfter := flag.Duration("retry-after", noisegw.DefaultRetryAfter, "backoff hint on 503 responses")
	heartbeat := flag.Duration("heartbeat", noisegw.DefaultHeartbeat, "keepalive interval on idle merged streams (negative disables)")
	probeInterval := flag.Duration("probe-interval", noisegw.DefaultProbeInterval, "replica health-probe period")
	maxStrikes := flag.Int("max-strikes", noisegw.DefaultMaxStrikes, "consecutive failures that eject a replica")
	ejectBackoff := flag.Duration("eject-backoff", noisegw.DefaultEjectBackoff, "first ejection window (doubles per trip)")
	stallTimeout := flag.Duration("stall-timeout", noisegw.DefaultStallTimeout, "cut a shard stream silent for this long, or for 3 of the replica's advertised heartbeat intervals if longer")
	hedgeAfter := flag.Duration("hedge-after", 0, "duplicate a slow shard onto a second replica after this long (0 disables)")
	maxReshards := flag.Int("max-reshards", noisegw.DefaultMaxReshards, "redistribution hops per net before reporting it failed")
	flag.Parse()
	cliutil.ExitIfVersion()

	if len(replicas) == 0 {
		cliutil.Usagef("at least one -replica is required")
	}

	gw, err := noisegw.New(noisegw.Config{
		Replicas:          replicas,
		MaxInflight:       *maxInflight,
		MaxQueue:          *maxQueue,
		MaxNets:           *maxNets,
		MaxRequestTimeout: *requestTimeout,
		DrainTimeout:      *drainTimeout,
		RetryAfter:        *retryAfter,
		Heartbeat:         *heartbeat,
		ProbeInterval:     *probeInterval,
		MaxStrikes:        *maxStrikes,
		EjectBackoff:      *ejectBackoff,
		StallTimeout:      *stallTimeout,
		HedgeAfter:        *hedgeAfter,
		MaxReshards:       *maxReshards,
		Logf:              log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("gateway listening on %s over %d replicas", ln.Addr(), len(replicas))
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	ctx, cancel := cliutil.Context(0)
	defer cancel()
	if err := gw.Serve(ctx, ln); err != nil {
		log.Fatal(err)
	}
	log.Printf("drained cleanly")
}
