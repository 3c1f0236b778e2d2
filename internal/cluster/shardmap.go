package cluster

import (
	"fmt"
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
func (p ShardPlacement) HasReplica(node string) bool {
	for _, r := range p.Replicas {
		if r == node {
			return true
		}
	}
	return false
}

// loadCell is one cache-line-padded per-shard demand tally, so
// concurrent client lanes noting different shards never false-share.
type loadCell struct {
	v atomic.Int64
	_ [56]byte
}

// ShardMap partitions the key space into a fixed number of logical
// shards and maps each shard to a replica set of cache nodes. It is the
// dynamic successor of a bare consistent-hash ring: the ring seeds the
// initial one-replica-per-shard placement, and the shard manager then
// replicates, un-replicates and migrates shards at runtime. The read
// path (ShardOf, Placement, Note) is lock-free — placements live in an
// immutable copy-on-write snapshot behind an atomic pointer — while
// mutators serialize on a mutex and bump a global generation, mirroring
// the Sharder's generation-lease rule: any placement a client resolved
// before the bump is stale, and the epoch stamped into cache keys is
// what makes acting on a stale placement harmless.
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
// the given virtual-node count. shards < 1 is treated as 1.
func NewShardMap(shards int, nodes []string, virtualNodes int) (*ShardMap, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ShardMap needs at least one node")
	}
	if shards < 1 {
		shards = 1
	}
	ring := NewRing(virtualNodes)
	sorted := make([]string, len(nodes))
	copy(sorted, nodes)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("cluster: duplicate node %q", sorted[i])
		}
	}
	for _, n := range sorted {
		ring.Add(n)
	}
	m := &ShardMap{
		shards:  shards,
		nodes:   sorted,
		loads:   make([]loadCell, shards),
		tainted: make([]map[string]bool, shards),
	}
	pls := make([]ShardPlacement, shards)
	for i := range pls {
		pls[i] = ShardPlacement{Replicas: []string{ring.Owner("shard#" + strconv.Itoa(i))}, Epoch: 1}
	}
	m.cur.Store(&pls)
	m.gen.Store(1)
	return m, nil
}

// Shards returns the logical shard count.
func (m *ShardMap) Shards() int { return m.shards }

// Nodes returns the node population, sorted.
func (m *ShardMap) Nodes() []string {
	out := make([]string, len(m.nodes))
	copy(out, m.nodes)
	return out
}

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

func (m *ShardMap) validNode(node string) bool {
	for _, n := range m.nodes {
		if n == node {
			return true
		}
	}
	return false
}

// Replicate adds node to shard's replica set. If the node previously
// left this shard's set since the last epoch bump (it may hold stale
// entries under the current epoch), the epoch bumps — a cold restart
// for the shard, the price of making the rejoin safe. Returns false if
// the node is unknown, already a replica, or the shard is mid-handoff.
func (m *ShardMap) Replicate(shard int, node string) bool {
	if !m.validNode(node) {
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
	if !m.validNode(to) {
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
