package cache

// Sharded is a concurrency-safe cache built from N independently locked
// LRU shards. The byte capacity is divided evenly among shards, mirroring
// how production caches (memcached, CacheLib) partition memory.
type Sharded[V any] struct {
	shards []locked[V]
}

// NewSharded returns a sharded cache with the given total byte capacity
// split across nShards shards. nShards < 1 is treated as 1. The split
// conserves every byte: Σ shard capacities == capacity (see
// shardCapacities for the small-capacity rule).
func NewSharded[V any](capacity int64, nShards int, sizeOf SizeOf[V]) *Sharded[V] {
	if nShards < 1 {
		nShards = 1
	}
	s := &Sharded[V]{
		shards: make([]locked[V], nShards),
	}
	caps := shardCapacities(capacity, nShards)
	for i := range s.shards {
		s.shards[i].lru = NewLRU[V](caps[i], sizeOf)
	}
	return s
}

// shardCapacities splits a total byte budget across n shards so the
// per-shard budgets always sum exactly to the total: every shard gets
// the floor share and the remainder is spread one byte at a time over
// the leading shards. When capacity < n — the small-capacity case —
// the leading `capacity` shards get one byte each and the rest zero:
// keys hashing to a zero-budget shard are simply never admitted, but
// no configured byte silently disappears. Negative capacities are
// normalized to zero (an LRU with no budget caches nothing).
func shardCapacities(capacity int64, n int) []int64 {
	if capacity < 0 {
		capacity = 0
	}
	per := capacity / int64(n)
	rem := capacity % int64(n)
	caps := make([]int64, n)
	for i := range caps {
		caps[i] = per
		if int64(i) < rem {
			caps[i]++
		}
	}
	return caps
}

// Resize moves the cache to a new total byte capacity, redistributing
// per-shard budgets under the same remainder rule as construction.
// Shrinking evicts down immediately (each shard's LRU evicts to fit its
// new budget); growing keeps resident entries. Each shard switches
// budgets atomically under its own lock, so concurrent readers and
// writers are never exposed to a torn total.
func (s *Sharded[V]) Resize(capacity int64) {
	caps := shardCapacities(capacity, len(s.shards))
	for i := range s.shards {
		s.shards[i].mu.Lock()
		s.shards[i].lru.SetCapacity(caps[i])
		s.shards[i].mu.Unlock()
	}
}

// shard routes key with FNV-1a. The hash is intentionally fixed (not a
// per-instance random seed): shard placement, and therefore per-shard LRU
// eviction order, must be identical across runs for experiments to be
// reproducible under a fixed workload seed.
func (s *Sharded[V]) shard(key string) *locked[V] {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return &s.shards[h%uint64(len(s.shards))]
}

// Get returns the value for key. The value is returned as stored — for
// reference types (slices, pointers) it is shared, not copied. That is
// safe under concurrent readers as long as writers follow the
// replace-don't-mutate discipline: Put a new value rather than mutating
// one a previous Get may still be holding. Every store in this repo
// obeys it (remotecache copies the transport buffer before Put and
// treats stored bytes as immutable; linkedcache hands out live values
// under the same contract).
func (s *Sharded[V]) Get(key string) (V, bool) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.lru.Get(key)
}

// Put inserts or replaces key.
func (s *Sharded[V]) Put(key string, v V) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.lru.Put(key, v)
}

// Delete removes key, reporting whether it was present.
func (s *Sharded[V]) Delete(key string) bool {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.lru.Delete(key)
}

// UsedBytes returns the total budgeted bytes across shards.
func (s *Sharded[V]) UsedBytes() int64 {
	var n int64
	for i := range s.shards {
		s.shards[i].mu.Lock()
		n += s.shards[i].lru.UsedBytes()
		s.shards[i].mu.Unlock()
	}
	return n
}

// Capacity returns the total byte capacity across shards.
func (s *Sharded[V]) Capacity() int64 {
	var n int64
	for i := range s.shards {
		n += s.shards[i].lru.Capacity()
	}
	return n
}

// Stats returns counters summed across shards.
func (s *Sharded[V]) Stats() Stats {
	var out Stats
	for i := range s.shards {
		s.shards[i].mu.Lock()
		out.add(s.shards[i].lru.Stats())
		s.shards[i].mu.Unlock()
	}
	return out
}
