// Package consistency holds the paper's Figure 8 scenario: a write
// delayed across a resharding leaves an ownership-based cache stale, and
// write fencing prevents it. The consistent caches the paper prices
// (Linked+Version, the §6 ownership design, Linked+TTL) are tier policies
// in internal/core.
package consistency

import (
	"errors"
	"fmt"
	"sync"
)

// This file implements the paper's Figure 8 "delayed writes" problem and
// the write-fencing mechanism that closes it.
//
// The anomaly: (1) an application sends a write to storage, but the write
// is delayed in flight; (2) a different cache instance — after a reshard
// or failover — reads the current (old) value from storage and becomes
// the authoritative owner; (3) the delayed write lands, leaving cache and
// storage permanently out of sync.
//
// The fix demonstrated here: writes carry a fencing token (the ownership
// generation under which they were issued); storage rejects tokens older
// than the highest it has admitted for that key. The delayed write from
// before the reshard then fails instead of corrupting the new owner's
// authority — the same discipline Chubby-style lock services impose on
// lagging lock holders.

// ErrFenced is returned by FencedStore for writes carrying a stale token.
var ErrFenced = errors.New("consistency: write fenced (stale ownership token)")

// FencedStore is a toy versioned KV store that optionally enforces write
// fencing. It stands in for the real storage node in the Figure 8
// scenario so the interleaving can be scripted precisely.
type FencedStore struct {
	mu       sync.Mutex
	data     map[string]string
	versions map[string]uint64
	fences   map[string]uint64
	nextVer  uint64
	// Enforce controls whether stale tokens are rejected.
	Enforce bool
}

// newFencedStore returns an empty store.
func newFencedStore(enforce bool) *FencedStore {
	return &FencedStore{
		data:     make(map[string]string),
		versions: make(map[string]uint64),
		fences:   make(map[string]uint64),
		Enforce:  enforce,
	}
}

// get returns the value and version of key.
func (s *FencedStore) get(key string) (string, uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.data[key]
	return v, s.versions[key], ok
}

// put writes key with a fencing token. If enforcement is on and the token
// is older than the highest admitted token for the key, the write is
// rejected with ErrFenced.
func (s *FencedStore) put(key, value string, token uint64) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.Enforce && token < s.fences[key] {
		return 0, ErrFenced
	}
	if token > s.fences[key] {
		s.fences[key] = token
	}
	s.nextVer++
	s.data[key] = value
	s.versions[key] = s.nextVer
	return s.nextVer, nil
}

// advanceFence records that the new owner of key operates at the given
// generation, fencing out older writers even before the new owner's
// first write.
func (s *FencedStore) advanceFence(key string, token uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if token > s.fences[key] {
		s.fences[key] = token
	}
}

// DelayedWriteReport is the outcome of one Figure 8 run.
type DelayedWriteReport struct {
	// Fenced reports whether write fencing was enforced.
	Fenced bool
	// DelayedWriteApplied reports whether the delayed write landed in
	// storage.
	DelayedWriteApplied bool
	// CacheValue and StorageValue are the final values seen by the cache
	// owner and stored durably.
	CacheValue   string
	StorageValue string
	// Stale reports the anomaly: the authoritative cache disagrees with
	// storage.
	Stale bool
}

// String renders the report.
func (r DelayedWriteReport) String() string {
	return fmt.Sprintf("fenced=%v delayedApplied=%v cache=%q storage=%q stale=%v",
		r.Fenced, r.DelayedWriteApplied, r.CacheValue, r.StorageValue, r.Stale)
}

// RunDelayedWriteScenario scripts Figure 8 against a FencedStore:
//
//	t0: instance A owns "k" (generation 1) and issues Put(k, "new") —
//	    but the write stalls in flight.
//	t1: a reshard moves "k" to instance B (generation 2). B reads "old"
//	    from storage and becomes authoritative; with fencing, B's
//	    takeover advances the fence.
//	t2: A's delayed write finally reaches storage.
//	t3: B serves "k" from its authoritative cache.
//
// Without fencing the delayed write lands and B serves stale data
// forever. With fencing the delayed write is rejected and cache and
// storage agree.
func RunDelayedWriteScenario(enforceFencing bool) DelayedWriteReport {
	store := newFencedStore(enforceFencing)
	const key = "k"

	// Initial committed state, written under generation 1.
	store.put(key, "old", 1)

	// t1: reshard to B at generation 2; B reads current value and, if
	// fencing is on, registers its generation with storage.
	if enforceFencing {
		store.advanceFence(key, 2)
	}
	bCache, _, _ := store.get(key) // B's authoritative copy

	// t2: A's delayed write (issued under generation 1) arrives.
	_, err := store.put(key, "new", 1)
	applied := err == nil

	// t3: B serves from cache; storage has whatever it has.
	storageVal, _, _ := store.get(key)

	return DelayedWriteReport{
		Fenced:              enforceFencing,
		DelayedWriteApplied: applied,
		CacheValue:          bCache,
		StorageValue:        storageVal,
		Stale:               bCache != storageVal,
	}
}
