// Package cluster provides the partitioning substrate: the ShardMap,
// which splits the key space into logical shards and places each on a
// replica set of nodes. The routed remote cache client resolves keys
// through it and the shard manager reshapes it, and the ownership-based
// consistent cache of §6 takes its leases from it: a node owns a key
// while it is the primary of the key's shard, under the shard's epoch.
package cluster

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// ShardPlacement is one logical shard's current placement. Placements
// are immutable once published: readers get the struct by value from an
// atomic snapshot and must not mutate Replicas.
type ShardPlacement struct {
	// Replicas holds the nodes serving the shard; Replicas[0] is the
	// primary (backfill target during a handoff).
	Replicas []string
	// Epoch is the shard's key-stamping generation. Cache keys are
	// stamped with the epoch (see EpochKey), so entries written under a
	// previous placement can never satisfy a read under the current one
	// — the generation rule that makes replica-set changes and handoffs
	// safe without enumerating or flushing a node's entries.
	Epoch uint64
	// Old, when non-empty, is the previous primary of an in-flight
	// migration: reads that miss the new replica set double-read it at
	// OldEpoch, writes invalidate it, and FinishMigration clears it.
	Old string
	// OldEpoch is the epoch Old's entries were stamped with.
	OldEpoch uint64
}

// Primary returns the shard's primary node ("" for an empty placement).
func (p ShardPlacement) Primary() string {
	if len(p.Replicas) == 0 {
		return ""
	}
	return p.Replicas[0]
}

// Migrating reports whether a handoff is in flight.
func (p ShardPlacement) Migrating() bool { return p.Old != "" }

// HasReplica reports whether node currently serves the shard.
func (p ShardPlacement) HasReplica(node string) bool { return slices.Contains(p.Replicas, node) }

// loadCell is one cache-line-padded per-shard demand tally, so
// concurrent client lanes noting different shards never false-share.
type loadCell struct {
	v atomic.Int64
	_ [56]byte
}

// ShardMap partitions the key space into a fixed number of logical
// shards and maps each shard to a replica set of nodes. A consistent-hash
// ring seeds the initial one-replica-per-shard placement, and the shard
// manager then replicates, un-replicates and migrates shards at runtime.
// The read path (ShardOf, Placement, Note) is lock-free — placements
// live in an immutable copy-on-write snapshot behind an atomic pointer —
// while mutators serialize on a mutex and bump a global generation. Any
// placement a reader resolved before a bump is stale; the shard's epoch,
// stamped into cache keys and ownership leases, is what makes acting on
// a stale placement harmless.
type ShardMap struct {
	shards int
	nodes  []string // fixed node population, sorted

	cur atomic.Pointer[[]ShardPlacement]
	gen atomic.Uint64

	loads []loadCell

	mu sync.Mutex
	// tainted[s] holds nodes that left shard s's replica set since its
	// last epoch bump; re-adding such a node must bump the epoch, or its
	// leftover entries from the earlier membership would become readable
	// again (a stale-hit hazard no invalidation ever covered).
	tainted []map[string]bool
}

// NewShardMap builds a map of `shards` logical shards over the given
// nodes, seeding one primary per shard from a consistent-hash ring with
// the given virtual-node count (see seedPrimaries). shards < 1 is
// treated as 1.
func NewShardMap(shards int, nodes []string, virtualNodes int) (*ShardMap, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ShardMap needs at least one node")
	}
	shards = max(shards, 1)
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("cluster: duplicate node %q", sorted[i])
		}
	}
	m := &ShardMap{
		shards:  shards,
		nodes:   sorted,
		loads:   make([]loadCell, shards),
		tainted: make([]map[string]bool, shards),
	}
	pls := make([]ShardPlacement, shards)
	for i, primary := range seedPrimaries(shards, sorted, virtualNodes) {
		pls[i] = ShardPlacement{Replicas: []string{primary}, Epoch: 1}
	}
	m.cur.Store(&pls)
	m.gen.Store(1)
	return m, nil
}

// seedPrimaries places shards on a consistent-hash ring. Each node takes
// virtualNodes points (at least one), hash64("<node>#<i>"), and shard i
// goes to the node with the first point at or after hash64("shard#<i>"),
// wrapping past the top. nodes are sorted and the sort is stable, so on a
// point collision the earlier node keeps the point.
func seedPrimaries(shards int, nodes []string, virtualNodes int) []string {
	type point struct {
		h    uint64
		node string
	}
	virtualNodes = max(virtualNodes, 1)
	ring := make([]point, 0, len(nodes)*virtualNodes)
	for _, n := range nodes {
		for i := 0; i < virtualNodes; i++ {
			ring = append(ring, point{hash64(n + "#" + strconv.Itoa(i)), n})
		}
	}
	sort.SliceStable(ring, func(i, j int) bool { return ring[i].h < ring[j].h })
	primaries := make([]string, shards)
	for s := range primaries {
		h := hash64("shard#" + strconv.Itoa(s))
		i := sort.Search(len(ring), func(i int) bool { return ring[i].h >= h })
		primaries[s] = ring[i%len(ring)].node
	}
	return primaries
}

// hash64 is FNV-1a over the string's bytes, computed inline so key
// lookups never copy the string into a []byte. FNV-1a of short, similar
// strings yields near-sequential values, which would clump a node's
// virtual nodes into one arc of the ring, so a murmur3-style finalizer
// spreads them uniformly.
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

// Shards returns the logical shard count.
func (m *ShardMap) Shards() int { return m.shards }

// Nodes returns the node population, sorted.
func (m *ShardMap) Nodes() []string { return slices.Clone(m.nodes) }

// ShardOf maps a key to its logical shard. Allocation-free.
func (m *ShardMap) ShardOf(key string) int {
	return int(hash64(key) % uint64(m.shards))
}

// Placement returns shard's current placement: one atomic load, no
// copies. The caller must not mutate the Replicas slice.
func (m *ShardMap) Placement(shard int) ShardPlacement {
	return (*m.cur.Load())[shard]
}

// Note tallies one operation against shard in the current demand
// window. Lock-free and padded per shard; the shard manager drains the
// window each tick.
func (m *ShardMap) Note(shard int) {
	m.loads[shard].v.Add(1)
}

// DrainLoads swaps out and returns the per-shard demand window tallied
// since the previous drain, reusing dst when it has capacity.
func (m *ShardMap) DrainLoads(dst []int64) []int64 {
	if cap(dst) < m.shards {
		dst = make([]int64, m.shards)
	}
	dst = dst[:m.shards]
	for i := range m.loads {
		dst[i] = m.loads[i].v.Swap(0)
	}
	return dst
}

// publishLocked installs a modified copy of the placement snapshot with
// shard replaced, and bumps the generation. Callers hold m.mu.
func (m *ShardMap) publishLocked(shard int, pl ShardPlacement) {
	old := *m.cur.Load()
	next := make([]ShardPlacement, len(old))
	copy(next, old)
	next[shard] = pl
	m.cur.Store(&next)
	m.gen.Add(1)
}

// Replicate adds node to shard's replica set. If the node previously
// left this shard's set since the last epoch bump (it may hold stale
// entries under the current epoch), the epoch bumps — a cold restart
// for the shard, the price of making the rejoin safe. Returns false if
// the node is unknown, already a replica, or the shard is mid-handoff.
func (m *ShardMap) Replicate(shard int, node string) bool {
	if !slices.Contains(m.nodes, node) {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	pl := (*m.cur.Load())[shard]
	if pl.Migrating() || pl.HasReplica(node) {
		return false
	}
	replicas := make([]string, 0, len(pl.Replicas)+1)
	replicas = append(replicas, pl.Replicas...)
	replicas = append(replicas, node)
	pl.Replicas = replicas
	if m.tainted[shard][node] {
		pl.Epoch++
		m.tainted[shard] = nil
	}
	m.publishLocked(shard, pl)
	return true
}

// Unreplicate removes a non-primary replica from shard. The departing
// node is marked tainted: its entries stay stamped with the current
// epoch, so re-adding it later forces an epoch bump. Returns false if
// node is not a secondary replica or the shard is mid-handoff.
func (m *ShardMap) Unreplicate(shard int, node string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	pl := (*m.cur.Load())[shard]
	if pl.Migrating() || node == pl.Primary() || !pl.HasReplica(node) {
		return false
	}
	replicas := make([]string, 0, len(pl.Replicas)-1)
	for _, r := range pl.Replicas {
		if r != node {
			replicas = append(replicas, r)
		}
	}
	pl.Replicas = replicas
	if m.tainted[shard] == nil {
		m.tainted[shard] = make(map[string]bool)
	}
	m.tainted[shard][node] = true
	m.publishLocked(shard, pl)
	return true
}

// BeginMigration starts a live handoff of shard to a new primary: the
// new placement is [to] at a fresh epoch, with the previous primary
// recorded as Old at its old epoch. During the handoff, readers that
// miss the new primary double-read Old and copy the value forward;
// writers invalidate both. Secondary replicas are dropped — their
// entries are stamped with the superseded epoch and therefore dead, so
// no taint is recorded for them (or for the old primary). Returns false
// if to is unknown, already the primary, or a handoff is in flight.
func (m *ShardMap) BeginMigration(shard int, to string) bool {
	if !slices.Contains(m.nodes, to) {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	pl := (*m.cur.Load())[shard]
	if pl.Migrating() || to == pl.Primary() {
		return false
	}
	next := ShardPlacement{
		Replicas: []string{to},
		Epoch:    pl.Epoch + 1,
		Old:      pl.Primary(),
		OldEpoch: pl.Epoch,
	}
	m.tainted[shard] = nil
	m.publishLocked(shard, next)
	return true
}

// FinishMigration cuts shard over: the old primary is forgotten and the
// double-read window closes. Its leftover entries are stamped with the
// superseded epoch, so they can never satisfy a read again. Returns
// false if no handoff is in flight.
func (m *ShardMap) FinishMigration(shard int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	pl := (*m.cur.Load())[shard]
	if !pl.Migrating() {
		return false
	}
	pl.Old, pl.OldEpoch = "", 0
	m.publishLocked(shard, pl)
	return true
}

// EpochKey stamps a cache key with its shard's placement epoch
// ("e<epoch>|<key>"). Every entry a cache node holds was stored under
// some epoch's stamp; bumping the epoch makes all of them unreachable
// at once — invalidation by generation rather than by enumeration.
func EpochKey(epoch uint64, key string) string {
	b := make([]byte, 0, len(key)+22)
	b = append(b, 'e')
	b = strconv.AppendUint(b, epoch, 10)
	b = append(b, '|')
	b = append(b, key...)
	return string(b)
}

// TrimEpoch strips an EpochKey stamp, returning the raw key (inputs
// without a stamp pass through unchanged).
func TrimEpoch(k string) string {
	if len(k) < 3 || k[0] != 'e' {
		return k
	}
	for i := 1; i < len(k); i++ {
		c := k[i]
		if c == '|' {
			if i == 1 {
				return k
			}
			return k[i+1:]
		}
		if c < '0' || c > '9' {
			return k
		}
	}
	return k
}
