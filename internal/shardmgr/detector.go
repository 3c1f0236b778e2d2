// Package shardmgr is the dynamic shard manager: it watches the demand
// the remote-cache tier actually serves — a constant-memory streaming
// top-k over served keys plus per-shard demand windows from the routing
// layer — and reshapes cluster.ShardMap placements at runtime:
// replicating hot shards across cache nodes, un-replicating cooled
// ones, and live-migrating shards off overloaded nodes through the
// map's generation-stamped double-read handoff.
package shardmgr

import (
	"math"
	"sort"
	"strings"
	"sync"
	"unsafe"
)

// detStripes is the number of independently locked space-saving
// summaries. Serving goroutines hash to a stripe by stack address (the
// telemetry registry's trick), so concurrent cache nodes rarely contend
// on one mutex; snapshots merge the stripes.
const detStripes = 8

// HotKey is one entry of the detector's merged top-k: a key, its
// estimated count, and the overestimation bound inherited from the
// counters it displaced (space-saving guarantees true_count ∈
// [Count-Err, Count]).
type HotKey struct {
	Key   string
	Count int64
	Err   int64
}

// ssEntry is one space-saving counter.
type ssEntry struct {
	count int64
	err   int64
}

// filterSlots is the size of each stripe's admission filter (a single
// count-min row). Power of two; 256 uint32s is one KiB per stripe.
const filterSlots = 256

type detStripe struct {
	mu     sync.Mutex
	counts map[string]*ssEntry
	filter [filterSlots]uint32 // unmonitored-key mass, by key hash
	min    int64               // cached minimum monitored count (admission gate)
	ops    int64
	_      [24]byte // keep neighbouring stripes off one cache line
}

// Detector is a striped space-saving ("stream summary") heavy-hitter
// sketch: k counters per stripe, constant memory no matter how many
// distinct keys stream past. It is fed from the cache nodes' serve
// path, so it observes the demand that actually lands on the cache tier
// (after client-side routing), not the workload the generator intended.
// Safe for concurrent use; Record is mutex-per-stripe but effectively
// uncontended, and implements remotecache.KeyRecorder.
type Detector struct {
	stripes [detStripes]detStripe
	k       int
}

// NewDetector builds a detector with k counters per stripe. k < 8 is
// raised to 8.
func NewDetector(k int) *Detector {
	if k < 8 {
		k = 8
	}
	d := &Detector{k: k}
	for i := range d.stripes {
		d.stripes[i].counts = make(map[string]*ssEntry, k)
	}
	return d
}

// stripeIndex picks this goroutine's stripe from the address of a stack
// variable (distinct goroutines, distinct stacks) mixed through a
// splitmix64 finalizer. The pointer is only hashed, never stored.
func stripeIndex() uint64 {
	var probe byte
	p := uint64(uintptr(unsafe.Pointer(&probe)))
	p ^= p >> 30
	p *= 0xbf58476d1ce4e5b9
	p ^= p >> 27
	p *= 0x94d049bb133111eb
	p ^= p >> 31
	return p & (detStripes - 1)
}

// fnvMix hashes a key for the admission filter: inline FNV-1a (no
// import, no allocation) with a final avalanche shift.
func fnvMix(key string) uint32 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return uint32(h ^ h>>32)
}

// Record feeds one served key into the sketch. The key may alias a
// transport buffer (the cache server's zero-copy Get decode): lookups
// never retain it, and the insert path clones it before storing.
//
// This is filtered space-saving: an unmonitored key first accumulates
// mass in a small counting filter, and only displaces the minimum
// monitored counter once its filter estimate exceeds that minimum. The
// filter turns the cold-tail case — the overwhelmingly common one on a
// serve path, where a one-off key would otherwise evict, allocate and
// clone on every op — into one array increment, while a genuinely
// heating key still crosses the gate within ~min occurrences. The
// estimate invariant rests on one more invariant: every unmonitored key's
// true count is at most its slot's mass. An admitted key then enters with
// count = its slot's mass + 1 (an overestimate — the slot is shared) and
// err = count-1, so true_count ∈ [Count-Err, Count] brackets; and an
// evicted counter's count goes back into its own slot, as filtered
// space-saving prescribes, so a key evicted early and heating up again
// re-enters at or above its true count. Neither admission nor eviction
// lowers a slot's mass: other unmonitored keys may share it.
func (d *Detector) Record(key string) {
	s := &d.stripes[stripeIndex()]
	s.mu.Lock()
	s.ops++
	if e, ok := s.counts[key]; ok {
		e.count++
		s.mu.Unlock()
		return
	}
	if len(s.counts) < d.k {
		s.counts[strings.Clone(key)] = &ssEntry{count: 1}
		s.mu.Unlock()
		return
	}
	slot := fnvMix(key) & (filterSlots - 1)
	c := int64(s.filter[slot]) + 1
	if c <= s.min {
		// Cold tail: not yet heavier than the lightest monitored key.
		s.filter[slot] = uint32(c)
		s.mu.Unlock()
		return
	}
	// Admission: evict the true minimum counter (exact scan — the cached
	// gate may run slightly behind; ties go to the smallest key, so the
	// sketch does not depend on map order), return its count to its slot,
	// and monitor this key at its filter estimate.
	var minKey string
	minCount := int64(math.MaxInt64)
	for k, e := range s.counts {
		if e.count < minCount || e.count == minCount && k < minKey {
			minKey, minCount = k, e.count
		}
	}
	c = max(c, minCount+1)
	delete(s.counts, minKey)
	evicted := fnvMix(minKey) & (filterSlots - 1)
	s.filter[evicted] = max(s.filter[evicted], uint32(min(minCount, math.MaxUint32)))
	s.counts[strings.Clone(key)] = &ssEntry{count: c, err: c - 1}
	s.min = minCount // stale-low is safe: it only re-opens the gate early
	s.mu.Unlock()
}

// Ops returns the total number of recorded observations.
func (d *Detector) Ops() int64 {
	var sum int64
	for i := range d.stripes {
		s := &d.stripes[i]
		s.mu.Lock()
		sum += s.ops
		s.mu.Unlock()
	}
	return sum
}

// TopK merges the stripes and returns up to n keys by descending
// estimated count (ties broken by key for determinism).
func (d *Detector) TopK(n int) []HotKey {
	merged := make(map[string]HotKey)
	for i := range d.stripes {
		s := &d.stripes[i]
		s.mu.Lock()
		for k, e := range s.counts {
			m := merged[k]
			m.Key = k
			m.Count += e.count
			m.Err += e.err
			merged[k] = m
		}
		s.mu.Unlock()
	}
	out := make([]HotKey, 0, len(merged))
	for _, hk := range merged {
		out = append(out, hk)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
