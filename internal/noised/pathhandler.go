package noised

import (
	"context"
	"io"
	"net/http"

	"repro/internal/clarinet"
	"repro/internal/noiseerr"
	"repro/internal/pathnoise"
	"repro/internal/workload"
)

// POST /v1/analyze-path is the path-mode twin of /v1/analyze: the body
// is a netgen case file with a paths section, the response streams one
// pathnoise.StageRecord per completed (path, stage, iteration) in the
// negotiated wire (NDJSON default, colblob FramePathStage frames on
// request), and the terminal summary carries the assembled path
// reports. The reports come from pathnoise.Assemble — the same pure
// function the CLI report file uses — so MarshalReport over the
// summary's reports is byte-identical to a clarinet -path-report run of
// the same workload.

// PathSummary is the terminal line/frame of an analyze-path stream.
type PathSummary struct {
	RequestID     string `json:"request_id,omitempty"`
	Paths         int    `json:"paths"`
	OK            int    `json:"ok"`
	Failed        int    `json:"failed"`
	Canceled      int    `json:"canceled"`
	StagesResumed int    `json:"stages_resumed"`
	ElapsedMS     int64  `json:"elapsed_ms"`
	Deadline      bool   `json:"deadline,omitempty"`
	Draining      bool   `json:"draining,omitempty"`

	// Reports are the end-to-end path outcomes in workload order;
	// pathnoise.MarshalReport renders them in the CLI's canonical bytes.
	Reports []*pathnoise.PathReport `json:"reports"`
}

// PathStreamLine is one NDJSON line of the analyze-path response: a
// stage record (Path non-empty), a keepalive heartbeat, or the terminal
// summary.
type PathStreamLine struct {
	pathnoise.StageRecord
	Heartbeat bool         `json:"heartbeat,omitempty"`
	Summary   *PathSummary `json:"pathSummary,omitempty"`
}

// runPathsFunc is the seam between the serving layer and the DAG
// scheduler; tests substitute controllable fakes for pathnoise.Run.
type runPathsFunc func(ctx context.Context, t *clarinet.Tool, paths []*pathnoise.Path, opt pathnoise.Options) ([]*pathnoise.PathReport, error)

// pathExchange is the daemon's POST /v1/analyze-path: a case file with
// a paths section in, one record per completed stage out as the DAG
// scheduler emits them, and the assembled path reports in the summary.
type pathExchange struct {
	s       *Server
	paths   []*pathnoise.Path
	reports []*pathnoise.PathReport
	sum     PathSummary
}

func (x *pathExchange) Load(body io.Reader) error {
	_, cases, paths, err := workload.LoadPaths(body, x.s.session.Lib())
	switch {
	case err != nil:
		return err
	case len(paths) == 0:
		return noiseerr.Invalidf("noised: case set defines no paths")
	case len(cases) > x.s.cfg.MaxNets:
		return &StatusError{http.StatusRequestEntityTooLarge, noiseerr.Invalidf("noised: stage cases exceed the per-request net limit")}
	}
	x.paths = paths
	return nil
}

func (x *pathExchange) Start(ctx context.Context, opt Options) (<-chan pathnoise.StageRecord, func() error, error) {
	s := x.s
	tool, err := s.tool(opt)
	if err != nil {
		return nil, nil, err
	}
	// Server-side stage journal: replay a resubmitted request's
	// completed stages, then append the new ones. Its name differs from
	// the per-net journal's so the two routes can share a request ID
	// without replaying each other's records.
	var prior map[pathnoise.StageKey]pathnoise.StageRecord
	var journal *pathnoise.PathJournal
	var release func() error
	if path, ok := s.journalPath(opt.RequestID, ".path.journal"); ok {
		if prior, err = pathnoise.ReadPathJournalFile(path); err != nil {
			return nil, nil, err
		}
		if len(prior) > 0 {
			s.reg.Counter(mServerRequestsResumed).Inc()
		}
		if journal, release, err = pathnoise.OpenPathJournal(path, s.stageCodec()); err != nil {
			return nil, nil, err
		}
	}
	x.sum = PathSummary{RequestID: opt.RequestID, Paths: len(x.paths), StagesResumed: len(prior)}

	// The scheduler runs in its own goroutine; Emit forwards each stage
	// record to the stream loop, which owns the response writer, with a
	// slot per path so concurrent paths rarely wait on a client write.
	// The reports are read only after recs closes.
	recs := make(chan pathnoise.StageRecord, len(x.paths))
	go func() {
		defer close(recs)
		x.reports, _ = s.runPaths(ctx, tool, x.paths, pathnoise.Options{
			MaxIterations: opt.Iterations,
			PathTimeout:   opt.PathTimeout,
			Journal:       journal,
			Prior:         prior,
			Emit: func(rec pathnoise.StageRecord) {
				select {
				case recs <- rec:
				case <-ctx.Done():
				}
			},
		})
	}()
	return recs, release, nil
}

func (x *pathExchange) Record(rec pathnoise.StageRecord) pathnoise.StageRecord { return rec }

func (x *pathExchange) Summary(context.Context, func(pathnoise.StageRecord) error) (*PathSummary, error) {
	for _, rep := range x.reports {
		switch {
		case rep.Class == "canceled":
			x.sum.Canceled++
		case rep.Failed():
			x.sum.Failed++
		default:
			x.sum.OK++
		}
	}
	x.sum.Reports = x.reports
	return &x.sum, nil
}

// stageCodec resolves the configured journal codec to its stage-journal
// counterpart (the codec names are shared).
func (s *Server) stageCodec() pathnoise.StageCodec {
	if s.cfg.JournalCodec == nil {
		return nil // binary default
	}
	codec, err := pathnoise.StageCodecByName(s.cfg.JournalCodec.Name())
	if err != nil {
		return nil
	}
	return codec
}
