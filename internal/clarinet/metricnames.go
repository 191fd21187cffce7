package clarinet

// Metric-name constant table (enforced by noiselint/metricflow): every
// counter/timer name the pool emits is spelled exactly once, here, so a
// call-site typo cannot silently fork a series. The nets.* counters
// partition per-net outcomes (see AnalyzeNet's doc for the counting
// rules); rescue.* tracks the resilience ladder; the two timers measure
// one net's wall time through each flow.
const (
	mNetsAnalyzed = "nets.analyzed"
	mNetsFailed   = "nets.failed"
	mNetsCanceled = "nets.canceled"
	mNetsDeadline = "nets.deadline"
	mNetsPanicked = "nets.panicked"
	mNetsRescued  = "nets.rescued"
	mNetsFallback = "nets.fallback"
	mNetsExact    = "nets.exact"
	mNetsResumed  = "nets.resumed"
	// mNetsReused counts the names of a batch that took the report of
	// an identical case analyzed in the same batch; they also count in
	// nets.analyzed and in their report's quality counter.
	mNetsReused = "nets.reused"

	mNetAnalyze    = "net.analyze"
	mNetQuiet      = "net.quiet"
	mNetFunctional = "net.functional"

	mRescueAttempts = "rescue.attempts"
	// mRescuePrefix is completed with the rung name at the call site:
	// one counter per rescue rung.
	mRescuePrefix = "rescue."
)
