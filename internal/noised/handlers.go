package noised

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/clarinet"
	"repro/internal/delaynoise"
	"repro/internal/noiseerr"
	"repro/internal/resilience"
	"repro/internal/workload"
)

// Summary is the final NDJSON line of an analyze stream: the request's
// aggregate outcome. Its wrapper object {"summary": ...} has no "net"
// field, so journal readers skip it and stream readers can tell it from
// a per-net record.
type Summary struct {
	RequestID string `json:"request_id,omitempty"`
	Nets      int    `json:"nets"`
	OK        int    `json:"ok"`
	Failed    int    `json:"failed"`
	Canceled  int    `json:"canceled"`
	Resumed   int    `json:"resumed"`
	ElapsedMS int64  `json:"elapsed_ms"`
	// Deadline marks a stream cut short by the per-request timeout;
	// Draining marks one that ran during shutdown. Both are retry
	// hints for the client.
	Deadline bool `json:"deadline,omitempty"`
	Draining bool `json:"draining,omitempty"`
}

// StreamLine is one NDJSON line of the analyze response: a per-net
// record (Net non-empty), a keepalive heartbeat (Heartbeat true, no
// other fields), or the terminal summary. Record consumers that predate
// heartbeats already skip them: a heartbeat line has an empty Net, the
// same shape they ignore for the summary.
type StreamLine struct {
	clarinet.JournalRecord
	Heartbeat bool     `json:"heartbeat,omitempty"`
	Summary   *Summary `json:"summary,omitempty"`
}

// Health is the /healthz payload.
type Health struct {
	Status       string         `json:"status"`
	Instance     string         `json:"instance"`
	Build        buildinfo.Info `json:"build"`
	UptimeS      float64        `json:"uptime_s"`
	Draining     bool           `json:"draining"`
	Inflight     int64          `json:"inflight"`
	QueueDepth   int64          `json:"queue_depth"`
	TablesCached int            `json:"tables_cached"`
	NetsAnalyzed int64          `json:"nets_analyzed"`
}

// InstanceHeader carries the server's random per-process identity on
// every analyze, healthz, and readyz response. The gateway compares it
// across probes: a changed instance behind the same address means the
// replica restarted, not blipped.
const InstanceHeader = "X-Noised-Instance"

// HeartbeatHeader advertises an analyze stream's heartbeat interval (a
// Go duration, absent when heartbeats are off). A gateway sizes its
// stall watchdog on the stream from it.
const HeartbeatHeader = "X-Noised-Heartbeat"

// netExchange is the daemon's POST /v1/analyze: a workload case file
// in, one record per net out as the clarinet pool completes them.
type netExchange struct {
	s     *Server
	names []string
	cases []*delaynoise.Case
	sum   Summary
}

func (x *netExchange) Load(body io.Reader) error {
	names, cases, err := workload.Load(body, x.s.session.Lib())
	switch {
	case err != nil:
		return err
	case len(cases) == 0:
		return noiseerr.Invalidf("noised: empty case set")
	case len(cases) > x.s.cfg.MaxNets:
		return &StatusError{http.StatusRequestEntityTooLarge,
			noiseerr.Invalidf("noised: %d nets exceeds the per-request limit %d", len(cases), x.s.cfg.MaxNets)}
	}
	x.names, x.cases = names, cases
	return nil
}

func (x *netExchange) Start(ctx context.Context, opt Options) (<-chan clarinet.NetReport, func() error, error) {
	s := x.s
	tool, err := s.tool(opt)
	if err != nil {
		return nil, nil, err
	}
	// Server-side journal: replay a resubmitted request's completed
	// nets, then append the new ones. The journal is opened (and its
	// torn tail repaired) only when a net is left to append: a request
	// that resumes whole reads its journal once and writes nothing.
	var prior map[string]clarinet.NetReport
	var journal *clarinet.Journal
	var release func() error
	if path, ok := s.journalPath(opt.RequestID, ".journal"); ok {
		if prior, err = readPriorJournal(path); err != nil {
			return nil, nil, err
		}
		if len(prior) > 0 {
			s.reg.Counter(mServerRequestsResumed).Inc()
		}
		if !allResumed(x.names, prior) {
			if journal, release, err = openJournal(path, s.cfg.JournalCodec); err != nil {
				return nil, nil, err
			}
		}
	}
	x.sum = Summary{RequestID: opt.RequestID, Nets: len(x.cases), Resumed: len(prior)}
	return s.runBatch(tool, ctx, x.names, x.cases, prior, journal), release, nil
}

func (x *netExchange) Record(rep clarinet.NetReport) clarinet.JournalRecord {
	switch {
	case rep.Err == nil:
		x.sum.OK++
	case noiseerr.Class(rep.Err) == noiseerr.ErrCanceled:
		x.sum.Canceled++
	default:
		x.sum.Failed++
	}
	return clarinet.ToWireRecord(rep)
}

func (x *netExchange) Summary(context.Context, func(clarinet.JournalRecord) error) (*Summary, error) {
	return &x.sum, nil
}

// tool builds one request's clarinet view over the warm session. The
// request's net timeout (the server default unless the request set
// one) bounds every net, whether or not the request asked for rescue.
func (s *Server) tool(opt Options) (*clarinet.Tool, error) {
	pol := s.requestPolicy(opt)
	pol.NetTimeout = opt.NetTimeout
	return clarinet.New(nil, clarinet.Config{
		Session:    s.session,
		Hold:       opt.Hold,
		Align:      opt.Align,
		Workers:    s.cfg.Workers,
		Resilience: pol,
	})
}

// requestPolicy resolves the resilience policy for one request: the
// configured ladder (or the default one) when rescue is on, nothing
// when the request disabled it.
func (s *Server) requestPolicy(opt Options) resilience.Policy {
	if !opt.Rescue {
		return resilience.Policy{}
	}
	if s.cfg.Resilience.Enabled() {
		return s.cfg.Resilience
	}
	return resilience.DefaultPolicy()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	h := Health{
		Status:       "ok",
		Instance:     s.instance,
		Build:        buildinfo.Current(),
		UptimeS:      time.Since(s.started).Seconds(),
		Draining:     s.Draining(),
		Inflight:     snap.Gauges[mServerInflight],
		QueueDepth:   snap.Gauges[mServerQueueDepth],
		TablesCached: s.session.TableCount(),
		NetsAnalyzed: snap.Counters["nets.analyzed"],
	}
	if h.Draining {
		h.Status = "draining"
	}
	w.Header().Set(InstanceHeader, s.instance)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(h)
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(InstanceHeader, s.instance)
	if s.Draining() {
		s.front.Unavailable(w, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.reg.Snapshot().WriteJSON(w)
}
