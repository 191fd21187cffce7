package clarinet

import (
	"fmt"
	"io"
	"sort"
)

// ReportOptions adjusts the rendered batch report.
type ReportOptions struct {
	// Quality appends a column recording how each net's result was
	// obtained (exact / rescued / fallback).
	Quality bool
}

// WriteReportOpts renders the batch outcome as an aligned table, worst
// nets first, followed by a failure list.
func WriteReportOpts(w io.Writer, reports []NetReport, o ReportOptions) {
	ok := make([]NetReport, 0, len(reports))
	var failed []NetReport
	for _, r := range reports {
		if r.Err != nil {
			failed = append(failed, r)
		} else {
			ok = append(ok, r)
		}
	}
	sort.Slice(ok, func(i, j int) bool {
		return ok[i].Res.DelayNoise > ok[j].Res.DelayNoise
	})
	qhdr, qrow := "", ""
	if o.Quality {
		qhdr = fmt.Sprintf(" %-9s", "quality")
	}
	fmt.Fprintf(w, "%-16s %-12s %-12s %-10s %-10s %-10s %-10s %-6s%s\n",
		"net", "quiet(ps)", "noise(ps)", "Vp(V)", "W(ps)", "Rth(ohm)", "Rtr(ohm)", "iters", qhdr)
	for _, r := range ok {
		res := r.Res
		if o.Quality {
			qrow = fmt.Sprintf(" %-9s", r.Quality)
		}
		fmt.Fprintf(w, "%-16s %-12.2f %-12.2f %-10.3f %-10.1f %-10.0f %-10.0f %-6d%s\n",
			r.Name, res.QuietCombinedDelay*1e12, res.DelayNoise*1e12,
			res.Pulse.Height, res.Pulse.Width*1e12,
			res.VictimRth, res.VictimRtr, res.Iterations, qrow)
	}
	for _, r := range failed {
		fmt.Fprintf(w, "%-16s FAILED: %v\n", r.Name, r.Err)
	}
}

// WriteFuncReport renders the functional-noise outcome, failures and
// biggest glitches first.
func WriteFuncReport(w io.Writer, reports []FuncReport) {
	ok := make([]FuncReport, 0, len(reports))
	var failed []FuncReport
	for _, r := range reports {
		if r.Err != nil {
			failed = append(failed, r)
		} else {
			ok = append(ok, r)
		}
	}
	sort.Slice(ok, func(i, j int) bool {
		return ok[i].Res.OutputGlitch > ok[j].Res.OutputGlitch
	})
	fmt.Fprintf(w, "%-16s %-8s %-10s %-10s %-12s %-12s %-8s\n",
		"net", "state", "Rhold", "Vp(V)", "W(ps)", "glitch(mV)", "status")
	for _, r := range ok {
		res := r.Res
		state := "low"
		if res.VictimHigh {
			state = "high"
		}
		status := "pass"
		if res.Failed {
			status = "FAIL"
		}
		fmt.Fprintf(w, "%-16s %-8s %-10.0f %-10.3f %-12.1f %-12.1f %-8s\n",
			r.Name, state, res.RHold, res.InputPulse.Height,
			res.InputPulse.Width*1e12, res.OutputGlitch*1e3, status)
	}
	for _, r := range failed {
		fmt.Fprintf(w, "%-16s ERROR: %v\n", r.Name, r.Err)
	}
}

// WriteMetricsSummary renders the headline numbers of a run: nets,
// simulation counts, and one line per cache with hit/miss counts.
func WriteMetricsSummary(w io.Writer, t *Tool) {
	s := t.Metrics().Snapshot()
	fmt.Fprintf(w, "nets analyzed: %d (%d failed), workers: %d\n",
		s.Counters[mNetsAnalyzed], s.Counters[mNetsFailed], t.Workers())
	// Resilience breakdown, shown once any net deviated from the plain
	// exact path (cancellation is excluded from the failure totals above
	// and itemized here instead).
	if s.Counters[mNetsRescued]+s.Counters[mNetsFallback]+s.Counters[mNetsCanceled]+
		s.Counters[mNetsDeadline]+s.Counters[mNetsPanicked]+s.Counters[mNetsResumed] > 0 {
		fmt.Fprintf(w, "resilience: %d exact, %d rescued, %d fallback, %d deadline, %d panicked, %d canceled, %d resumed\n",
			s.Counters[mNetsExact], s.Counters[mNetsRescued], s.Counters[mNetsFallback],
			s.Counters[mNetsDeadline], s.Counters[mNetsPanicked],
			s.Counters[mNetsCanceled], s.Counters[mNetsResumed])
	}
	fmt.Fprintf(w, "simulations: %d linear, %d nonlinear receiver (%d stopped at a settled tail)\n",
		s.Counters["sim.linear"], s.Counters["sim.nonlinear.receiver"], s.Counters["sim.nonlinear.receiver.settled"])
	for _, cache := range []struct{ base, label string }{
		{"cache.tables", "alignment tables"},
		{"cache.char.rough", "rough driver fits"},
		{"cache.char.full", "driver characterizations"},
		{"cache.holdres", "holding resistances"},
		{"cache.rom", "PRIMA reductions"},
	} {
		hits, misses, ratio := s.CacheRatio(cache.base)
		if hits+misses == 0 {
			continue
		}
		fmt.Fprintf(w, "cache %-24s %d hits / %d misses (%.0f%%)\n",
			cache.label+":", hits, misses, 100*ratio)
	}
}
