package noisegw

import (
	"fmt"
	"testing"

	"repro/internal/workload"
)

func caseFor(name, cell string, slew float64) workload.CaseJSON {
	c := workload.CaseJSON{Name: name}
	c.Victim.Cell = cell
	c.Victim.InputSlew = slew
	return c
}

// TestBucketKey: the bucket is the cache-locality unit — cell crossed
// with a logarithmic slew band — so nets that share a characterization
// table share a bucket, and nets that don't, don't.
func TestBucketKey(t *testing.T) {
	base := caseFor("a", "INVX4", 50e-12)
	sameBand := caseFor("b", "INVX4", 55e-12) // same decade fifth
	if bucketKey(base) != bucketKey(sameBand) {
		t.Fatalf("same cell and slew band split buckets: %q vs %q", bucketKey(base), bucketKey(sameBand))
	}
	otherCell := caseFor("c", "BUFX8", 50e-12)
	if bucketKey(base) == bucketKey(otherCell) {
		t.Fatalf("different cells share bucket %q", bucketKey(base))
	}
	otherBand := caseFor("d", "INVX4", 500e-12) // one decade up
	if bucketKey(base) == bucketKey(otherBand) {
		t.Fatalf("slews a decade apart share bucket %q", bucketKey(base))
	}
	// Degenerate slews must not panic the log and must stay stable.
	zero := caseFor("e", "INVX4", 0)
	neg := caseFor("f", "INVX4", -1)
	if bucketKey(zero) != bucketKey(neg) {
		t.Fatalf("degenerate slews disagree: %q vs %q", bucketKey(zero), bucketKey(neg))
	}
}

// TestRingBalance: with virtual nodes, a three-replica ring spreads
// many distinct buckets roughly evenly — no replica takes more than
// twice its fair share.
func TestRingBalance(t *testing.T) {
	names := []string{"http://a:9001", "http://b:9001", "http://c:9001"}
	r := newRing(names)
	counts := map[string]int{}
	const buckets = 3000
	for i := 0; i < buckets; i++ {
		counts[r.owner(fmt.Sprintf("CELL%d/%d", i%97, i%13))]++
	}
	fair := buckets / len(names)
	for _, n := range names {
		if counts[n] == 0 {
			t.Fatalf("replica %s owns no buckets: %v", n, counts)
		}
		if counts[n] > 2*fair {
			t.Fatalf("replica %s owns %d of %d buckets (fair %d): %v", n, counts[n], buckets, fair, counts)
		}
	}
}

// TestRingStability is the consistent-hashing contract: removing one
// replica moves only the buckets it owned; every other assignment is
// untouched, so surviving replicas keep their warm caches.
func TestRingStability(t *testing.T) {
	full := newRing([]string{"a", "b", "c"})
	reduced := newRing([]string{"a", "b"})
	for i := 0; i < 2000; i++ {
		bucket := fmt.Sprintf("CELL%d/%d", i, i%11)
		before := full.owner(bucket)
		after := reduced.owner(bucket)
		if before != "c" && after != before {
			t.Fatalf("bucket %s moved %s -> %s though its owner survived", bucket, before, after)
		}
		if before == "c" && after != "a" && after != "b" {
			t.Fatalf("bucket %s orphaned to %q", bucket, after)
		}
	}
}

// TestRingDeterminism: the ring is a pure function of the name set —
// order of configuration must not matter.
func TestRingDeterminism(t *testing.T) {
	r1 := newRing([]string{"a", "b", "c"})
	r2 := newRing([]string{"c", "a", "b"})
	for i := 0; i < 500; i++ {
		bucket := fmt.Sprintf("CELL%d/3", i)
		if r1.owner(bucket) != r2.owner(bucket) {
			t.Fatalf("bucket %s owner depends on configuration order", bucket)
		}
	}
}

// TestShardCases: every case lands on exactly one replica, same-bucket
// cases stay together, and input order is preserved within each shard
// (the replicas stream in the order they receive).
func TestShardCases(t *testing.T) {
	var cases []workload.CaseJSON
	for i := 0; i < 60; i++ {
		cases = append(cases, caseFor(fmt.Sprintf("net%02d", i), fmt.Sprintf("CELL%d", i%7), 50e-12))
	}
	names := []string{"a", "b", "c"}
	shards := shard(cases, names, bucketKey)
	total := 0
	seen := map[string]string{}
	for replica, shard := range shards {
		total += len(shard)
		last := -1
		for _, c := range shard {
			if prev, dup := seen[c.Name]; dup {
				t.Fatalf("net %s on both %s and %s", c.Name, prev, replica)
			}
			seen[c.Name] = replica
			var idx int
			fmt.Sscanf(c.Name, "net%d", &idx)
			if idx <= last {
				t.Fatalf("shard %s out of input order: net%02d after net%02d", replica, idx, last)
			}
			last = idx
		}
	}
	if total != len(cases) {
		t.Fatalf("sharded %d of %d cases", total, len(cases))
	}
	// Same bucket -> same replica.
	byBucket := map[string]string{}
	for _, c := range cases {
		b := bucketKey(c)
		if prev, ok := byBucket[b]; ok && prev != seen[c.Name] {
			t.Fatalf("bucket %s split across %s and %s", b, prev, seen[c.Name])
		}
		byBucket[b] = seen[c.Name]
	}
}
