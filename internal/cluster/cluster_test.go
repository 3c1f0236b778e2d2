package cluster

import (
	"fmt"
	"slices"
	"testing"
)

// The consistent-hash ring that seeds a ShardMap, tested through
// seedPrimaries: each shard name is a key on the ring.

func nodeNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	return names
}

func TestRingSingleMemberOwnsAll(t *testing.T) {
	for s, got := range seedPrimaries(100, []string{"n1"}, 16) {
		if got != "n1" {
			t.Fatalf("shard %d seeded on %q", s, got)
		}
	}
}

// The seeding is a function of the node set alone: the same nodes in any
// order give the same placement.
func TestRingStableOwnership(t *testing.T) {
	first := seedPrimaries(200, []string{"n1", "n2", "n3"}, 64)
	if again := seedPrimaries(200, []string{"n1", "n2", "n3"}, 64); !slices.Equal(first, again) {
		t.Fatal("seeding not deterministic")
	}
	a := newTestMap(t, 200, "n1", "n2", "n3")
	b := newTestMap(t, 200, "n3", "n1", "n2")
	for s := 0; s < 200; s++ {
		if a.Placement(s).Primary() != first[s] || b.Placement(s).Primary() != first[s] {
			t.Fatalf("shard %d: %q and %q, want %q whatever the node order",
				s, a.Placement(s).Primary(), b.Placement(s).Primary(), first[s])
		}
	}
}

func TestRingBalance(t *testing.T) {
	const n = 10000
	counts := make(map[string]int)
	for _, node := range seedPrimaries(n, nodeNames(4), 128) {
		counts[node]++
	}
	for node, c := range counts {
		frac := float64(c) / n
		if frac < 0.10 || frac > 0.45 {
			t.Fatalf("node %s owns %.1f%% of shards; ring badly balanced: %v", node, frac*100, counts)
		}
	}
}

func TestRingMinimalMovementOnAdd(t *testing.T) {
	const n = 2000
	before := seedPrimaries(n, []string{"n1", "n2", "n3"}, 128)
	after := seedPrimaries(n, []string{"n1", "n2", "n3", "n4"}, 128)
	moved := 0
	for s, was := range before {
		if now := after[s]; now != was {
			if now != "n4" {
				t.Fatalf("shard %d moved between old nodes (%s -> %s)", s, was, now)
			}
			moved++
		}
	}
	frac := float64(moved) / n
	if frac < 0.05 || frac > 0.50 {
		t.Fatalf("adding 1 of 4 nodes moved %.1f%% of shards", frac*100)
	}
}

// With 64 virtual nodes per member, the max/min ownership spread across
// members stays within 2.5x. That bound is documentation as much as a
// guard: it is what the murmur-style finalizer in hash64 buys — a raw
// FNV-1a ring clumps one member's virtual nodes into a single arc and
// fails this by an order of magnitude. Checked for several cluster sizes
// so a finalizer regression cannot hide behind one lucky layout.
func TestRingBalanceBound(t *testing.T) {
	const vnodes = 64
	const shards = 20000
	const maxSpread = 2.5
	for _, members := range []int{2, 4, 8} {
		counts := map[string]int{}
		for _, node := range seedPrimaries(shards, nodeNames(members), vnodes) {
			counts[node]++
		}
		lo, hi := shards, 0
		for _, node := range nodeNames(members) {
			lo, hi = min(lo, counts[node]), max(hi, counts[node])
		}
		if lo == 0 {
			t.Fatalf("%d members: a member owns no shards: %v", members, counts)
		}
		if spread := float64(hi) / float64(lo); spread > maxSpread {
			t.Fatalf("%d members at %d vnodes: ownership spread %.2f exceeds %.1f (%v)",
				members, vnodes, spread, maxSpread, counts)
		}
	}
}
