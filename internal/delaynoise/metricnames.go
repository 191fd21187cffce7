package delaynoise

// Metric-name constant table (enforced by noiselint/metricflow): one
// home for every cache.* and sim.* series the analysis emits. The
// cache base names are completed with mHitSuffix/mMissSuffix by
// CharCache.count, and with mEntriesSuffix for the gauge of resident
// entries, so a base and its series cannot drift apart.
const (
	mCacheCharRough = "cache.char.rough"
	mCacheCharFull  = "cache.char.full"

	mHitSuffix     = ".hit"
	mMissSuffix    = ".miss"
	mEntriesSuffix = ".entries"

	mSimLinear            = "sim.linear"
	mSimNonlinearReceiver = "sim.nonlinear.receiver"
	// mSimReceiverSettled counts the search runs among them that the
	// settled-tail certificate ended before their horizon.
	mSimReceiverSettled = "sim.nonlinear.receiver.settled"
)
