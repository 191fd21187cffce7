package noisegw

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/noised"
	"repro/internal/noiseerr"
	"repro/internal/pathnoise"
	"repro/internal/workload"
)

// Path routing. A path is analyzed end to end on one replica: its
// stages chain (stage k's noisy receiver-output waveform is stage k+1's
// victim input), so splitting one path across replicas would serialize
// every boundary on a cross-replica handoff and forfeit the stage
// journal's locality. The gateway therefore shards whole paths by
// consistent hash of path name — one replica owns every stage of a
// path — and merges the stage-record streams back to the client.
//
// Exactly-once per path rests on the Done record: pathnoise emits a
// Done stage record when a path completes (success or a terminal
// failure such as a per-path deadline) and journals nothing for
// caller-canceled paths, so "no adopted report yet" is precisely "safe
// to reshard onto a survivor".

// pathKind routes whole paths: sharded by path name onto
// /v1/analyze-path, "-p" sub-request IDs, never hedged.
var pathKind = &kind[pathnoise.StageRecord, noised.PathSummary]{route: noised.AnalyzePath, noun: "paths", family: "-p"}

// pathKey places a path on the ring. The "path/" prefix keeps path keys
// in their own hash family, distinct from the per-net bucket keys.
func pathKey(p workload.PathJSON) string { return "path/" + p.Name }

// pathRequest is one POST /v1/analyze-path through the gateway: the
// spine's exchange and the coordinator's unit over whole paths. Stage
// records merge once per (path, stage, iter); a path finishes on the
// first real report a sub-summary carries.
type pathRequest struct {
	g          *Gateway
	file       workload.FileJSON
	caseByName map[string]workload.CaseJSON
	sum        noised.PathSummary

	seen    map[pathnoise.StageKey]bool      // stage-record dedupe
	reports map[string]*pathnoise.PathReport // path -> first real outcome
	resumed int                              // stages adopted from replica journals
}

func (x *pathRequest) Load(body io.Reader) error {
	file, err := decodeFile(body)
	if err != nil {
		return err
	}
	if err := validatePathFile(file, x.g.cfg.MaxNets); err != nil {
		if len(file.Cases) > x.g.cfg.MaxNets {
			return &noised.StatusError{Code: http.StatusRequestEntityTooLarge, Err: err}
		}
		return err
	}
	x.file = file
	return nil
}

func (x *pathRequest) Start(ctx context.Context, opt noised.Options) (<-chan pathnoise.StageRecord, func() error, error) {
	x.sum = noised.PathSummary{RequestID: opt.RequestID, Paths: len(x.file.Paths)}
	x.caseByName = make(map[string]workload.CaseJSON, len(x.file.Cases))
	for _, c := range x.file.Cases {
		x.caseByName[c.Name] = c
	}
	x.seen = map[pathnoise.StageKey]bool{}
	x.reports = map[string]*pathnoise.PathReport{}
	src, err := newRun(x.g, ctx, opt, pathKind, x).scatter(x.file.Paths)
	return src, nil, err
}

func (x *pathRequest) Record(rec pathnoise.StageRecord) pathnoise.StageRecord { return rec }

// Summary assembles the path reports in the client's path order, the
// same order pathnoise.Assemble uses. Every worker has exited, so a path
// without an adopted report is definitively unfinished.
func (x *pathRequest) Summary(ctx context.Context, _ func(pathnoise.StageRecord) error) (*noised.PathSummary, error) {
	for _, pj := range x.file.Paths {
		rep := x.reports[pj.Name]
		if rep == nil {
			x.g.reg.Counter(mGwPathsUnassigned).Inc()
			rep = unfinishedPathReport(pj.Name, ctx)
		}
		switch {
		case rep.Class == "canceled":
			x.sum.Canceled++
		case rep.Failed():
			x.sum.Failed++
		default:
			x.sum.OK++
		}
		x.sum.Reports = append(x.sum.Reports, rep)
	}
	x.sum.StagesResumed = x.resumed
	return &x.sum, nil
}

func (x *pathRequest) name(p workload.PathJSON) string     { return p.Name }
func (x *pathRequest) shardKey(p workload.PathJSON) string { return pathKey(p) }
func (x *pathRequest) finished(path string) bool           { return x.reports[path] != nil }

func (x *pathRequest) body(paths []workload.PathJSON) ([]byte, error) {
	return pathShardBody(x.file.Technology, paths, x.caseByName)
}

// merge forwards one stage record, deduplicating by (path, stage,
// iter): replays from replica-side journal resume after a shed retry
// present the same key and drop.
func (x *pathRequest) merge(rec pathnoise.StageRecord) bool {
	if rec.Path == "" {
		return false
	}
	if x.seen[rec.Key()] {
		x.g.reg.Counter(mGwStagesDuplicate).Inc()
		return false
	}
	x.seen[rec.Key()] = true
	x.g.reg.Counter(mGwStagesMerged).Inc()
	return true
}

// adopt takes a sub-summary's path reports: the first real outcome per
// path wins. Canceled reports never finalize a path — the replica was
// cut off mid-path and journaled nothing, so the reshard completes it
// instead.
func (x *pathRequest) adopt(sum *noised.PathSummary) {
	x.resumed += sum.StagesResumed
	for _, rep := range sum.Reports {
		if rep == nil || rep.Class == "canceled" {
			continue
		}
		if x.reports[rep.Name] == nil {
			x.reports[rep.Name] = rep
			x.g.reg.Counter(mGwPathsMerged).Inc()
		}
	}
}

// pathShardBody serializes one path shard: the shard's path definitions
// plus exactly the stage cases they reference, in path order.
func pathShardBody(tech string, paths []workload.PathJSON, byName map[string]workload.CaseJSON) ([]byte, error) {
	f := workload.FileJSON{Technology: tech, Paths: paths}
	added := map[string]bool{}
	for _, p := range paths {
		for _, stage := range p.Stages {
			if added[stage] {
				continue
			}
			c, ok := byName[stage]
			if !ok {
				return nil, noiseerr.Invalidf("noisegw: path %s references unknown case %q", p.Name, stage)
			}
			f.Cases = append(f.Cases, c)
			added[stage] = true
		}
	}
	return json.Marshal(f)
}

// validatePathFile checks the structural invariants the gateway can
// enforce without a device library: unique case and path names, every
// stage resolvable, a non-empty path set, and the net cap.
func validatePathFile(file workload.FileJSON, maxNets int) error {
	if len(file.Paths) == 0 {
		return noiseerr.Invalidf("noisegw: case set defines no paths")
	}
	if len(file.Cases) > maxNets {
		return noiseerr.Invalidf("noisegw: %d stage cases exceeds the limit %d", len(file.Cases), maxNets)
	}
	cases := make(map[string]bool, len(file.Cases))
	for _, c := range file.Cases {
		if c.Name == "" || cases[c.Name] {
			return noiseerr.Invalidf("noisegw: missing or duplicate net name %q", c.Name)
		}
		cases[c.Name] = true
	}
	paths := make(map[string]bool, len(file.Paths))
	for _, p := range file.Paths {
		if p.Name == "" || paths[p.Name] {
			return noiseerr.Invalidf("noisegw: missing or duplicate path name %q", p.Name)
		}
		paths[p.Name] = true
		if len(p.Stages) == 0 {
			return noiseerr.Invalidf("noisegw: path %s has no stages", p.Name)
		}
		for _, stage := range p.Stages {
			if !cases[stage] {
				return noiseerr.Invalidf("noisegw: path %s references unknown case %q", p.Name, stage)
			}
		}
	}
	return nil
}

// unfinishedPathReport renders the terminal report of a path no replica
// completed: canceled when the run was cut short, a reshard-budget
// failure otherwise.
func unfinishedPathReport(name string, ctx context.Context) *pathnoise.PathReport {
	rep := &pathnoise.PathReport{Name: name}
	if ctx.Err() != nil {
		rep.Class = "canceled"
		rep.Error = fmt.Sprintf("noisegw: run canceled before path completed: %v", ctx.Err())
	} else {
		rep.Class = noiseerr.ClassName(noiseerr.ErrInternal) // "internal"
		rep.Error = "noisegw: reshard budget exhausted with no healthy replica finishing the path"
	}
	return rep
}
