// Package pathnoise analyzes multi-stage fabrics end to end: chains of
// victim nets where stage k's receiver drives stage k+1's victim net,
// so the noisy waveform at one receiver output — the alignment
// objective internal/delaynoise already computes — becomes the next
// stage's victim input. Per-stage worst-casing is both pessimistic and
// optimistic against the true path-level number (Nazarian/Pedram,
// "Modeling and Propagation of Noisy Waveforms in Static Timing
// Analysis"): an early stage's delay noise shifts the victim arrival at
// every later stage, and a later stage's receiver nonlinearity filters
// the propagated edge. This package propagates two chains through the
// path — a quiet (noiseless) reference chain and a noisy chain — and
// reports the end-to-end 50%→50% path delay noise with its per-stage
// incremental decomposition.
//
// The execution model is a DAG-aware scheduler layered on the
// clarinet worker pool (see Run): stage k+1 of a path depends on stage
// k, independent paths overlap freely across the pool, each path runs
// under its own deadline, and the resilience Quality ladder of the
// per-net engine propagates along the path (a path is as degraded as
// its worst stage). Window/noise iteration follows the internal/sta
// fixpoint: a second pass constrains each stage's aggressor alignment
// to the switching window implied by that pass's own upstream arrivals,
// and iteration stops when the end-to-end arrival is stable. Because
// each pass derives its windows from its own chains, the first pass
// feeds only that stability test and the quiet chain, which reads no
// window and so is reused from pass 1 by every later pass, and a third
// pass would repeat the second exactly.
//
// The stage-graph vocabulary itself — Path, Stage and the chaining
// invariants — lives in internal/pathgraph, a leaf package the
// workload layer shares without depending on this analysis stack; the
// aliases below keep this package's API the canonical spelling for
// analysis-side callers.
package pathnoise

import "repro/internal/pathgraph"

// Stage is one link of a path; see pathgraph.Stage.
type Stage = pathgraph.Stage

// Path is an ordered chain of stages; see pathgraph.Path.
type Path = pathgraph.Path

// ValidatePaths validates a path set and rejects duplicate path names
// (journals, schedulers, and the gateway all key on them).
func ValidatePaths(paths []*Path) error { return pathgraph.ValidatePaths(paths) }

// riseFall names a transition direction for diagnostics.
func riseFall(rising bool) string { return pathgraph.RiseFall(rising) }
