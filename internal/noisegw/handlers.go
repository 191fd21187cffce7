package noisegw

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/noised"
	"repro/internal/noiseerr"
	"repro/internal/workload"
)

// errNoReplicas sheds a request when every replica is ejected: the
// fleet is down, and queueing the work would only mask it.
var errNoReplicas = errors.New("noisegw: no healthy replicas")

// Health is the gateway /healthz payload.
type Health struct {
	Status          string          `json:"status"`
	Instance        string          `json:"instance"`
	Build           buildinfo.Info  `json:"build"`
	UptimeS         float64         `json:"uptime_s"`
	Draining        bool            `json:"draining"`
	Inflight        int64           `json:"inflight"`
	QueueDepth      int64           `json:"queue_depth"`
	ReplicasHealthy int             `json:"replicas_healthy"`
	Replicas        []replicaHealth `json:"replicas"`
}

// decodeFile parses a request body structurally: the gateway shards
// cases without resolving them against a device library — validation
// against the technology stays at the replicas, which own the engine.
func decodeFile(body io.Reader) (workload.FileJSON, error) {
	var file workload.FileJSON
	if err := json.NewDecoder(body).Decode(&file); err != nil {
		return file, noiseerr.Invalidf("noisegw: decode: %w", err)
	}
	return file, nil
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := g.reg.Snapshot()
	replicas := g.set.health()
	healthy := 0
	for _, rh := range replicas {
		if rh.Healthy {
			healthy++
		}
	}
	h := Health{
		Status:          "ok",
		Instance:        g.instance,
		Build:           buildinfo.Current(),
		UptimeS:         time.Since(g.started).Seconds(),
		Draining:        g.Draining(),
		Inflight:        snap.Gauges[mGwInflight],
		QueueDepth:      snap.Gauges[mGwQueueDepth],
		ReplicasHealthy: healthy,
		Replicas:        replicas,
	}
	switch {
	case h.Draining:
		h.Status = "draining"
	case healthy == 0:
		h.Status = "no-replicas"
	case healthy < len(replicas):
		h.Status = "degraded"
	}
	w.Header().Set(noised.InstanceHeader, g.instance)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(h)
}

func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(noised.InstanceHeader, g.instance)
	if g.Draining() {
		g.front.Unavailable(w, "draining")
		return
	}
	if len(g.set.healthyNames()) == 0 {
		g.front.Unavailable(w, errNoReplicas.Error())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	g.reg.Snapshot().WriteJSON(w)
}
