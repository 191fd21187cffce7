package main

import (
	"math"
	"sort"
)

// Metric-name constant table: every metric the command prints is
// spelled exactly once, here, and BENCHMARK.json declares the same set
// (the lockstep test holds the two together). Every workload reports
// every metric of its table, so each name means one thing across
// workloads; README.md gives the per-workload reading.
const (
	// End-to-end metrics, measured with tracing off.
	mSetup      = "setup_s"
	mThroughput = "throughput_per_s"
	mLatencyP50 = "latency_p50_ms"
	mLatencyP90 = "latency_p90_ms"
	mPeakRSS    = "peak_rss_mb"

	// Per-layer metrics from the engine registries of a traced run.
	mCharacterizeMs = "delaynoise.characterize_ms"
	mSimulateMs     = "delaynoise.simulate_ms"
	mAlignMs        = "delaynoise.align_ms"
	mHoldresMs      = "delaynoise.holdres_ms"
	mReportMs       = "delaynoise.report_ms"
	mReceiverSims   = "align.receiver_sims_per_net"
	mLinearSims     = "lsim.linear_sims_per_net"
	mCharFullHit    = "engine.char_full_hit_pct"
	mCharRoughHit   = "engine.char_rough_hit_pct"
	mHoldresHit     = "engine.holdres_hit_pct"
	mTablesHit      = "engine.tables_hit_pct"
	mNetMs          = "clarinet.net_ms"
	mPoolBusy       = "clarinet.pool_busy_pct"
	mJournalBytes   = "journal.bytes_per_record"
	mJournalWriteUs = "journal.write_us"

	// Per-layer ladder: one public entry point per layer, timed on the
	// workload's reference net.
	mLadderLsim       = "ladder.lsim_run_us"
	mLadderReduce     = "ladder.mor_reduce_us"
	mLadderThevenin   = "ladder.thevenin_fit_us"
	mLadderHoldres    = "ladder.holdres_us"
	mLadderReceiver   = "ladder.receiver_sim_us"
	mLadderExhaustive = "ladder.exhaustive_align_us"
	mLadderPrechar    = "ladder.prechar_predict_us"
	mLadderAnalyze    = "ladder.analyze_net_us"
	mLadderEncode     = "ladder.codec_encode_us"
	mLadderDecode     = "ladder.codec_decode_us"
	mLadderGolden     = "ladder.golden_us"
	mLadderNoised     = "ladder.noised_replay_us"
	mLadderGateway    = "ladder.gateway_replay_us"
)

// metricDef declares one metric: its unit and which direction is better.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists the metrics of an untraced run, in print order.
var endToEnd = []metricDef{
	{mSetup, "s", lower},
	{mThroughput, "1/s", higher},
	{mLatencyP50, "ms", lower},
	{mLatencyP90, "ms", lower},
	{mPeakRSS, "MB", lower},
}

// perLayer lists the metrics of a traced run, in print order.
var perLayer = []metricDef{
	{mCharacterizeMs, "ms", lower},
	{mSimulateMs, "ms", lower},
	{mAlignMs, "ms", lower},
	{mHoldresMs, "ms", lower},
	{mReportMs, "ms", lower},
	{mReceiverSims, "count", lower},
	{mLinearSims, "count", lower},
	{mCharFullHit, "%", higher},
	{mCharRoughHit, "%", higher},
	{mHoldresHit, "%", higher},
	{mTablesHit, "%", higher},
	{mNetMs, "ms", lower},
	{mPoolBusy, "%", higher},
	{mJournalBytes, "B", lower},
	{mJournalWriteUs, "us", lower},
	{mLadderLsim, "us", lower},
	{mLadderReduce, "us", lower},
	{mLadderThevenin, "us", lower},
	{mLadderHoldres, "us", lower},
	{mLadderReceiver, "us", lower},
	{mLadderExhaustive, "us", lower},
	{mLadderPrechar, "us", lower},
	{mLadderAnalyze, "us", lower},
	{mLadderEncode, "us", lower},
	{mLadderDecode, "us", lower},
	{mLadderGolden, "us", lower},
	{mLadderNoised, "us", lower},
	{mLadderGateway, "us", lower},
}

// metricValue is one reported metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the middle of xs (the mean of the two middles for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method), so spreads match what the benchmark contract
// measures. One value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
