package main

import (
	"repro/internal/metrics"
	"repro/internal/noiseerr"
)

// Registry series the per-layer metrics read, as the engine, the pool
// and the caches name them. The stage timers come from noiseerr.
const (
	regNetsAnalyzed   = "nets.analyzed"
	regNetAnalyze     = "net.analyze"
	regNetQuiet       = "net.quiet"
	regSimReceiver    = "sim.nonlinear.receiver"
	regSimLinear      = "sim.linear"
	regCacheCharFull  = "cache.char.full"
	regCacheCharRough = "cache.char.rough"
	regCacheHoldres   = "cache.holdres"
	regCacheTables    = "cache.tables"
)

// perLayer assembles the traced run's metrics: registry counters and
// timers summed over every session the run used, per analyzed net, the
// journal layer's totals, and the ladder.
func (r *run) perLayer() map[string]metricValue {
	counters := map[string]int64{}
	timers := map[string]metrics.TimerStat{}
	for i, reg := range r.regs {
		s := reg.Snapshot()
		var base metrics.Snapshot
		if i < len(r.base) {
			base = r.base[i]
		}
		for k, v := range s.Counters {
			counters[k] += v - base.Counters[k]
		}
		for k, v := range s.Timers {
			t := timers[k]
			t.Count += v.Count - base.Timers[k].Count
			t.TotalNs += v.TotalNs - base.Timers[k].TotalNs
			timers[k] = t
		}
	}
	// A net analysis is a full noise analysis or, in path runs, the quiet
	// reference analysis of a stage.
	nets := float64(counters[regNetsAnalyzed] + timers[regNetQuiet].Count)
	netNs := float64(timers[regNetAnalyze].TotalNs + timers[regNetQuiet].TotalNs)
	stageMs := func(s noiseerr.Stage) float64 { return ratio(float64(timers[s.TimerName()].TotalNs)/1e6, nets) }
	hitPct := func(base string) float64 {
		hits := counters[base+".hit"]
		return 100 * ratio(float64(hits), float64(hits+counters[base+".miss"]))
	}
	j := r.journal.counts()
	records := float64(j.records - r.baseJourn.records)
	vals := map[string]float64{
		mCharacterizeMs: stageMs(noiseerr.StageCharacterize),
		mSimulateMs:     stageMs(noiseerr.StageSimulate),
		mAlignMs:        stageMs(noiseerr.StageAlign),
		mHoldresMs:      stageMs(noiseerr.StageHoldres),
		mReportMs:       stageMs(noiseerr.StageReport),
		mReceiverSims:   ratio(float64(counters[regSimReceiver]), nets),
		mLinearSims:     ratio(float64(counters[regSimLinear]), nets),
		mCharFullHit:    hitPct(regCacheCharFull),
		mCharRoughHit:   hitPct(regCacheCharRough),
		mHoldresHit:     hitPct(regCacheHoldres),
		mTablesHit:      hitPct(regCacheTables),
		mNetMs:          ratio(netNs/1e6, nets),
		mPoolBusy:       100 * ratio(netNs, float64(r.measured.Nanoseconds())*float64(r.workers)),
		mJournalBytes:   ratio(float64(j.bytes-r.baseJourn.bytes), records),
		mJournalWriteUs: ratio(float64(j.ns-r.baseJourn.ns)/1e3, records),
	}
	for k, v := range r.ladderVals {
		vals[k] = v
	}
	return table(perLayer, vals)
}

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
