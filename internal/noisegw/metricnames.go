package noisegw

// Metric-name constant table (enforced by noiselint/metricflow): the
// gw.* series in one place. Intake mirrors the noised server.* shape
// (accepted work vs. per-class rejections); the shard counters size the
// scatter side (streams opened, shed, torn, stalled, split for size);
// the replica
// counters track the health state machine; gw.reshards counts the
// recovery move; the histograms carry tail latency.
const (
	mGwRequests = "gw.requests"

	mGwRejectedQueue      = "gw.rejected.queue"
	mGwRejectedDraining   = "gw.rejected.draining"
	mGwRejectedNoReplicas = "gw.rejected.noreplicas"
	mGwRejectedValidation = "gw.rejected.validation"

	mGwNetsMerged     = "gw.nets.merged"
	mGwNetsUnassigned = "gw.nets.unassigned"
	mGwNetsDuplicate  = "gw.nets.duplicate"

	mGwPathsMerged     = "gw.paths.merged"
	mGwPathsUnassigned = "gw.paths.unassigned"
	mGwStagesMerged    = "gw.stages.merged"
	mGwStagesDuplicate = "gw.stages.duplicate"

	mGwReshards     = "gw.reshards"
	mGwShardStreams = "gw.shard.streams"
	mGwShardShed    = "gw.shard.shed"
	mGwShardTorn    = "gw.shard.torn"
	mGwShardStalled = "gw.shard.stalled"
	mGwShardSplit   = "gw.shard.split"

	mGwReplicaEjections = "gw.replica.ejections"
	mGwReplicaRejoins   = "gw.replica.rejoins"
	mGwReplicaRestarts  = "gw.replica.restarts"

	mGwReplicasHealthy = "gw.replicas_healthy"
	mGwInflight        = "gw.inflight"
	mGwQueueDepth      = "gw.queue_depth"

	mGwShardLatency = "gw.shard.latency"
	mGwNetLatency   = "gw.net.latency"
)
