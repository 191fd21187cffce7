package noisegw

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/clarinet"
	"repro/internal/noised"
	"repro/internal/noiseerr"
	"repro/internal/workload"
)

// netKind routes cases: sharded by characterization bucket onto
// /v1/analyze, "-s" sub-request IDs.
var netKind = &kind[clarinet.JournalRecord, noised.Summary]{route: noised.Analyze, noun: "nets", family: "-s"}

// netRequest is one POST /v1/analyze through the gateway: the spine's
// exchange (body, source, tally, summary) and the coordinator's unit
// over cases. A net finishes on its first real record; canceled
// placeholders never finish it.
type netRequest struct {
	g     *Gateway
	file  workload.FileJSON
	sum   noised.Summary
	start time.Time
	done  map[string]bool // net -> finalized
}

func (x *netRequest) Load(body io.Reader) error {
	file, err := decodeFile(body)
	switch {
	case err != nil:
		return err
	case len(file.Cases) == 0:
		return noiseerr.Invalidf("noisegw: empty case set")
	case len(file.Cases) > x.g.cfg.MaxNets:
		return &noised.StatusError{Code: http.StatusRequestEntityTooLarge,
			Err: noiseerr.Invalidf("noisegw: %d nets exceeds the limit %d", len(file.Cases), x.g.cfg.MaxNets)}
	}
	seen := make(map[string]bool, len(file.Cases))
	for _, c := range file.Cases {
		if c.Name == "" || seen[c.Name] {
			return noiseerr.Invalidf("noisegw: missing or duplicate net name %q", c.Name)
		}
		seen[c.Name] = true
	}
	x.file = file
	return nil
}

func (x *netRequest) Start(ctx context.Context, opt noised.Options) (<-chan clarinet.JournalRecord, func() error, error) {
	x.sum = noised.Summary{RequestID: opt.RequestID, Nets: len(x.file.Cases)}
	x.start = time.Now()
	x.done = map[string]bool{}
	src, err := newRun(x.g, ctx, opt, netKind, x).scatter(x.file.Cases)
	return src, nil, err
}

func (x *netRequest) Record(rec clarinet.JournalRecord) clarinet.JournalRecord {
	if rec.Error == "" {
		x.sum.OK++
	} else {
		x.sum.Failed++
	}
	return rec
}

// Summary reports the nets no stream finalized. Every worker has
// exited, so they are definitively incomplete — no late stream can
// contradict the records emitted now: canceled when our own context
// died, reshard failures otherwise.
func (x *netRequest) Summary(ctx context.Context, write func(clarinet.JournalRecord) error) (*noised.Summary, error) {
	for _, c := range x.file.Cases {
		if x.done[c.Name] {
			continue
		}
		x.g.reg.Counter(mGwNetsUnassigned).Inc()
		rec := unfinishedRecord(c.Name, ctx)
		if rec.Class == "canceled" {
			x.sum.Canceled++
		} else {
			x.sum.Failed++
		}
		if err := write(rec); err != nil {
			return nil, err
		}
	}
	return &x.sum, nil
}

func (x *netRequest) name(c workload.CaseJSON) string     { return c.Name }
func (x *netRequest) shardKey(c workload.CaseJSON) string { return bucketKey(c) }
func (x *netRequest) adopt(*noised.Summary)               {}
func (x *netRequest) finished(net string) bool            { return x.done[net] }

// refuse renders a net a replica refused on its own as an invalid-case
// failure with the replica's message.
func (x *netRequest) refuse(c workload.CaseJSON, msg string) (clarinet.JournalRecord, bool) {
	err := noiseerr.WithNet(c.Name, noiseerr.Invalidf("%s", msg))
	return clarinet.ToWireRecord(clarinet.NetReport{Name: c.Name, Err: err}), true
}

// body serializes one shard as the workload JSON schema the replicas
// parse.
func (x *netRequest) body(cases []workload.CaseJSON) ([]byte, error) {
	return json.Marshal(workload.FileJSON{Technology: x.file.Technology, Cases: cases})
}

// merge takes a net's first real outcome; duplicates and canceled
// placeholders drop (the latter stay eligible for the reshard that
// completes them).
func (x *netRequest) merge(rec clarinet.JournalRecord) bool {
	if rec.Net == "" || rec.Class == "canceled" {
		return false
	}
	if x.done[rec.Net] {
		x.g.reg.Counter(mGwNetsDuplicate).Inc()
		return false
	}
	x.done[rec.Net] = true
	x.g.reg.Counter(mGwNetsMerged).Inc()
	x.g.reg.Histogram(mGwNetLatency).Observe(time.Since(x.start))
	return true
}

// unfinishedRecord renders the terminal record of a net no replica
// finished: a canceled placeholder when the run itself was cut short,
// an internal reshard failure when the recovery budget ran out.
func unfinishedRecord(net string, ctx context.Context) clarinet.JournalRecord {
	var err error
	if ctx.Err() != nil {
		err = noiseerr.Canceled(fmt.Errorf("noisegw: run canceled before net completed: %w", ctx.Err()))
	} else {
		err = noiseerr.InStage(noiseerr.StageReshard,
			noiseerr.Internalf("noisegw: reshard budget exhausted with no healthy replica finishing the net"))
	}
	return clarinet.ToWireRecord(clarinet.NetReport{Name: net, Err: noiseerr.WithNet(net, err)})
}
