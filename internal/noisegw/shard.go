package noisegw

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/workload"
)

// Sharding. Nets are distributed over replicas by consistent hash of
// their characterization bucket, not their name: the bucket key is the
// victim driver cell crossed with a quantized input-slew band — the
// exact key the engine's alignment-table and driver-characterization
// caches are indexed by. Every net of one bucket lands on the same
// replica, so each replica's warm state covers only its slice of the
// workload and stays hot for it; a name-hash would spray every bucket
// across every replica and make each one warm the whole library.
//
// The ring is a standard consistent hash with virtual nodes: each
// replica owns ringVnodes pseudo-random points on a 64-bit circle, a
// bucket maps to the first point at or after its own hash. Removing a
// replica moves only the buckets it owned (to their next neighbors);
// the rest of the assignment — and the caches behind it — stays put.

// slewBandsPerDecade quantizes input slew into logarithmic bands, ~5
// per decade (matching the driver characterization cache's bucketing
// resolution closely enough that one band's nets hit one table).
const slewBandsPerDecade = 5

// ringVnodes is the virtual-node count per replica. 64 points keeps
// the max/mean bucket-load ratio under ~1.3 for small clusters.
const ringVnodes = 64

// bucketKey is the characterization bucket of one case: the cache
// locality unit the shard function preserves.
func bucketKey(c workload.CaseJSON) string {
	slew := c.Victim.InputSlew
	band := math.MinInt32
	if slew > 0 {
		band = int(math.Floor(math.Log10(slew) * slewBandsPerDecade))
	}
	return fmt.Sprintf("%s/%d", c.Victim.Cell, band)
}

// ring is a consistent-hash ring over replica names.
type ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	name string
}

// newRing builds the ring over the given replica names. Order does not
// matter; the same name set always yields the same ring.
func newRing(names []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(names)*ringVnodes)}
	for _, n := range names {
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", n, v)), name: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].name < r.points[j].name
	})
	return r
}

// owner returns the replica owning a bucket, or "" on an empty ring.
func (r *ring) owner(bucket string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(bucket)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].name
}

// ringHash is FNV-1a with an avalanche finalizer: FNV alone clusters
// on short sequential suffixes like "#1", "#2", which would skew the
// ring.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// shard distributes units over the named replicas by consistent hash
// of their key, preserving input order within each shard. An empty name
// set maps everything to "".
func shard[U any](units []U, names []string, key func(U) string) map[string][]U {
	r := newRing(names)
	out := make(map[string][]U, len(names))
	for _, u := range units {
		owner := r.owner(key(u))
		out[owner] = append(out[owner], u)
	}
	return out
}
