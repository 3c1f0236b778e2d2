// Package cluster provides the partitioning substrate: a consistent-hash
// ring, the ShardMap it seeds — the placement a routed remote cache
// client resolves keys through and the shard manager reshapes — and the
// Slicer-style auto-sharder ([3] in the paper) it backs, which grants
// generation-numbered ownership leases over key ranges. The ownership-based
// consistent cache of §6 builds on the sharder's leases to optimize away
// per-read version checks.
package cluster

import (
	"fmt"
	"sort"
	"sync"
)

// Ring is a consistent-hash ring with virtual nodes. It is safe for
// concurrent use.
type Ring struct {
	mu       sync.RWMutex
	replicas int // virtual nodes per member
	hashes   []uint64
	owners   map[uint64]string
	members  map[string]bool
}

// NewRing returns a ring with the given number of virtual nodes per
// member. replicas < 1 is treated as 1; production settings use 64+ for
// smooth balance.
func NewRing(replicas int) *Ring {
	if replicas < 1 {
		replicas = 1
	}
	return &Ring{
		replicas: replicas,
		owners:   make(map[uint64]string),
		members:  make(map[string]bool),
	}
}

// hash64 is FNV-1a over the string's bytes, computed inline so key
// lookups never copy the string into a []byte (hash/fnv's Write forces
// the conversion; indexing the string directly is allocation-free and
// byte-identical). FNV-1a of short, similar strings yields
// near-sequential values, which would clump a member's virtual nodes
// into one arc of the ring, so a murmur3-style finalizer spreads them
// uniformly.
func hash64(s string) uint64 {
	x := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= 1099511628211 // FNV-1a prime
	}
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add inserts a member. Adding an existing member is a no-op.
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[member] {
		return
	}
	r.members[member] = true
	for i := 0; i < r.replicas; i++ {
		h := hash64(fmt.Sprintf("%s#%d", member, i))
		// Skip pathological collisions rather than silently replacing.
		if _, taken := r.owners[h]; taken {
			continue
		}
		r.owners[h] = member
		r.hashes = append(r.hashes, h)
	}
	sort.Slice(r.hashes, func(i, j int) bool { return r.hashes[i] < r.hashes[j] })
}

// Owner returns the member owning key, or "" if the ring is empty.
func (r *Ring) Owner(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.hashes) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return r.owners[r.hashes[i]]
}
