// Package cache provides the in-memory caching primitives shared by every
// caching architecture in the study: a byte-budgeted LRU, a sharded wrapper
// for concurrency, and a reuse-distance analyzer that computes miss-ratio
// curves from traces (used to validate the analytic model in
// internal/core/model). Entries never expire: a design that bounds
// staleness stamps its entries itself (core's Linked+TTL tier).
//
// Values are generic: the remote cache stores []byte, while the linked
// cache stores live application objects — which is precisely the linked
// cache's advantage (§2.4): hits return a pointer, with no deserialization.
package cache

import "sync"

// Stats counts cache events. All counters are cumulative.
type Stats struct {
	Hits      int64
	Misses    int64
	Puts      int64
	Deletes   int64
	Evictions int64
}

// HitRatio returns Hits / (Hits + Misses), or 0 when no lookups happened.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Puts += o.Puts
	s.Deletes += o.Deletes
	s.Evictions += o.Evictions
}

// SizeOf reports the budgeted size of a cached value, in bytes. It should
// include per-entry overhead if the caller wants conservative budgeting.
type SizeOf[V any] func(key string, v V) int64

// EvictFunc observes evictions and deletes, e.g. to release
// resources or meter memory.
type EvictFunc[V any] func(key string, v V)

// LRU is a byte-budgeted least-recently-used cache. It is not safe for
// concurrent use; wrap it in Sharded for that.
//
// Entries live in one slab and link by index into a ring through node 0,
// the sentinel: nodes[0].next is the most recent entry, nodes[0].prev the
// least. A slot an entry leaves is zeroed, so it pins no value, and goes
// on a free list the next insert takes from, so once the slab has grown
// to the working set a Put — one that evicts included — allocates nothing.
// The slab keeps its high-water length: a shrink leaves free slots, each
// costing its node and nothing it held.
type LRU[V any] struct {
	capacity int64
	used     int64
	nodes    []node[V]
	free     int32 // first free slot, threaded through next; 0 when none
	items    map[string]int32
	sizeOf   SizeOf[V]
	onEvict  EvictFunc[V]
	stats    Stats
}

type node[V any] struct {
	key        string
	val        V
	size       int64
	prev, next int32
}

// NewLRU returns an LRU with the given byte capacity. sizeOf must be
// non-nil. A capacity <= 0 caches nothing (every Put is immediately
// evicted), which usefully models the "no cache" configuration.
func NewLRU[V any](capacity int64, sizeOf SizeOf[V]) *LRU[V] {
	if sizeOf == nil {
		panic("cache: sizeOf must be non-nil")
	}
	return &LRU[V]{
		capacity: capacity,
		nodes:    make([]node[V], 1),
		items:    make(map[string]int32),
		sizeOf:   sizeOf,
	}
}

// SetEvictFunc installs an eviction observer.
func (c *LRU[V]) SetEvictFunc(fn EvictFunc[V]) { c.onEvict = fn }

// Get returns the value for key, marking it most recently used.
func (c *LRU[V]) Get(key string) (V, bool) {
	i, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		var zero V
		return zero, false
	}
	c.moveToFront(i)
	c.stats.Hits++
	return c.nodes[i].val, true
}

// Put inserts or replaces key. Entries larger than the whole capacity are
// not admitted (they would evict everything for one uncacheable object).
func (c *LRU[V]) Put(key string, v V) {
	c.stats.Puts++
	size := c.sizeOf(key, v)
	if size > c.capacity {
		// Not admitted (the value would evict everything else for one
		// uncacheable object). On replace, the old entry is dropped too —
		// keeping it would serve a value the caller just overwrote, and
		// promoting it to the front would make evictToFit purge every
		// OTHER entry before the oversize one. Either way this counts as
		// an immediate eviction for observability.
		if i, ok := c.items[key]; ok {
			c.remove(i, &c.stats.Evictions)
			return
		}
		c.stats.Evictions++
		if c.onEvict != nil {
			c.onEvict(key, v)
		}
		return
	}
	if i, ok := c.items[key]; ok {
		n := &c.nodes[i]
		c.used += size - n.size
		n.val, n.size = v, size
		c.moveToFront(i)
		c.evictToFit()
		return
	}
	i := c.free
	if i != 0 {
		c.free = c.nodes[i].next
	} else {
		c.nodes = append(c.nodes, node[V]{})
		i = int32(len(c.nodes) - 1)
	}
	c.nodes[i] = node[V]{key: key, val: v, size: size}
	c.pushFront(i)
	c.items[key] = i
	c.used += size
	c.evictToFit()
}

// Delete removes key, returning whether it was present.
func (c *LRU[V]) Delete(key string) bool {
	i, ok := c.items[key]
	if !ok {
		return false
	}
	c.stats.Deletes++
	c.remove(i, nil)
	return true
}

// UsedBytes returns the budgeted bytes of live entries.
func (c *LRU[V]) UsedBytes() int64 { return c.used }

// Capacity returns the byte capacity.
func (c *LRU[V]) Capacity() int64 { return c.capacity }

// SetCapacity changes the byte budget, evicting LRU entries as needed.
func (c *LRU[V]) SetCapacity(capacity int64) {
	c.capacity = capacity
	c.evictToFit()
}

// Stats returns cumulative counters.
func (c *LRU[V]) Stats() Stats { return c.stats }

func (c *LRU[V]) evictToFit() {
	for c.used > c.capacity {
		i := c.nodes[0].prev
		if i == 0 {
			return
		}
		c.remove(i, &c.stats.Evictions)
	}
}

// pushFront links slot i in as the most recent entry.
func (c *LRU[V]) pushFront(i int32) {
	head := c.nodes[0].next
	c.nodes[i].prev, c.nodes[i].next = 0, head
	c.nodes[head].prev = i
	c.nodes[0].next = i
}

func (c *LRU[V]) moveToFront(i int32) {
	c.unlink(i)
	c.pushFront(i)
}

func (c *LRU[V]) unlink(i int32) {
	prev, next := c.nodes[i].prev, c.nodes[i].next
	c.nodes[prev].next = next
	c.nodes[next].prev = prev
}

// remove unlinks slot i and frees it, then reports the entry to onEvict.
func (c *LRU[V]) remove(i int32, counter *int64) {
	n := c.nodes[i]
	c.unlink(i)
	delete(c.items, n.key)
	c.used -= n.size
	c.nodes[i] = node[V]{next: c.free}
	c.free = i
	if counter != nil {
		*counter++
	}
	if c.onEvict != nil {
		c.onEvict(n.key, n.val)
	}
}

// Keys returns the keys from most to least recently used. kv's store
// state golden hashes the block cache through it.
func (c *LRU[V]) Keys() []string {
	out := make([]string, 0, len(c.items))
	for i := c.nodes[0].next; i != 0; i = c.nodes[i].next {
		out = append(out, c.nodes[i].key)
	}
	return out
}

// locked wraps an LRU in a mutex; it is the shard unit used by Sharded.
type locked[V any] struct {
	mu  sync.Mutex
	lru *LRU[V]
}
