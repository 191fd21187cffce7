package delaynoise

// Metric-name constant table (enforced by noiselint/metricflow): one
// home for every cache.* and sim.* series the analysis emits. The
// cache base names are completed with mHitSuffix/mMissSuffix by
// CharCache.count, so a base and its two outcomes cannot drift apart.
const (
	mCacheCharRough = "cache.char.rough"
	mCacheCharFull  = "cache.char.full"
	mCacheHoldres   = "cache.holdres"
	mCacheDrive     = "cache.drive"
	mCacheROMHit    = "cache.rom.hit"
	mCacheROMMiss   = "cache.rom.miss"

	mHitSuffix  = ".hit"
	mMissSuffix = ".miss"

	mSimLinear            = "sim.linear"
	mSimNonlinearReceiver = "sim.nonlinear.receiver"
)
