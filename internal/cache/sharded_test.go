package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestShardedBasic(t *testing.T) {
	s := NewSharded[[]byte](1<<20, 8, byteSize)
	s.Put("a", []byte("1"))
	v, ok := s.Get("a")
	if !ok || string(v) != "1" {
		t.Fatalf("Get = %q %v", v, ok)
	}
	if !s.Delete("a") {
		t.Fatal("Delete should find the key")
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("deleted key should miss")
	}
}

func TestShardedCapacitySplit(t *testing.T) {
	s := NewSharded[[]byte](800, 8, byteSize)
	if s.Capacity() != 800 {
		t.Fatalf("Capacity = %d", s.Capacity())
	}
	for i := 0; i < 1000; i++ {
		s.Put(fmt.Sprintf("k%d", i), make([]byte, 10))
	}
	if s.UsedBytes() > 800 {
		t.Fatalf("used %d > capacity", s.UsedBytes())
	}
}

func TestShardedMinimumOneShard(t *testing.T) {
	s := NewSharded[[]byte](100, 0, byteSize)
	s.Put("a", []byte("x"))
	if _, ok := s.Get("a"); !ok {
		t.Fatal("single-shard fallback should work")
	}
}

func TestShardedStatsAggregation(t *testing.T) {
	s := NewSharded[[]byte](1<<20, 4, byteSize)
	for i := 0; i < 100; i++ {
		s.Put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	for i := 0; i < 100; i++ {
		s.Get(fmt.Sprintf("k%d", i))
	}
	s.Get("missing")
	st := s.Stats()
	if st.Puts != 100 || st.Hits != 100 || st.Misses != 1 {
		t.Fatalf("aggregated stats = %+v", st)
	}
}

func TestShardedConcurrent(t *testing.T) {
	s := NewSharded[[]byte](1<<20, 16, byteSize)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%100)
				if i%3 == 0 {
					s.Put(key, make([]byte, 32))
				} else if i%7 == 0 {
					s.Delete(key)
				} else {
					s.Get(key)
				}
			}
		}(w)
	}
	wg.Wait() // run with -race
	if s.UsedBytes() < 0 {
		t.Fatal("usage accounting went negative")
	}
}

// Capacity conservation: the shard split must never discard the
// remainder bytes (the pre-fix code floored capacity/nShards, silently
// losing capacity % nShards — 15 bytes of every 16-shard cache with an
// odd budget) and must stay exact even when capacity < nShards.
func TestShardedCapacityConservation(t *testing.T) {
	cases := []struct {
		capacity int64
		shards   int
	}{
		{800, 8},   // divides evenly
		{1023, 16}, // remainder 15
		{100, 16},  // remainder 4
		{5, 16},    // small-capacity case: fewer bytes than shards
		{1, 16},    // single byte
		{0, 4},     // empty cache
		{17, 16},   // remainder 1
		{-5, 4},    // negative normalizes to zero
	}
	for _, c := range cases {
		s := NewSharded[[]byte](c.capacity, c.shards, byteSize)
		want := c.capacity
		if want < 0 {
			want = 0
		}
		if got := s.Capacity(); got != want {
			t.Errorf("NewSharded(%d, %d): Σ shard capacities = %d, want %d",
				c.capacity, c.shards, got, want)
		}
		var sum int64
		for i := range s.shards {
			if cap := s.shards[i].lru.Capacity(); cap < 0 {
				t.Errorf("NewSharded(%d, %d): shard %d has negative capacity %d",
					c.capacity, c.shards, i, cap)
			} else {
				sum += cap
			}
		}
		if sum != want {
			t.Errorf("NewSharded(%d, %d): per-shard sum = %d, want %d",
				c.capacity, c.shards, sum, want)
		}
	}
}

// The small-capacity case is defined, not degenerate: with fewer bytes
// than shards the leading shards carry the budget, so entries small
// enough to fit are still cacheable somewhere.
func TestShardedSmallCapacityAdmits(t *testing.T) {
	s := NewSharded[[]byte](5, 16, byteSize)
	admitted := 0
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("%d", i)
		if len(k) > 1 {
			k = k[:1]
		}
		s.Put(k, nil)
		if _, ok := s.Get(k); ok {
			admitted++
		}
	}
	if admitted == 0 {
		t.Fatal("a 5-byte cache must still admit 1-byte entries on its non-zero shards")
	}
}

// Resize redistributes with the same conservation guarantee, evicts
// down on shrink, and keeps residents on grow.
func TestShardedResize(t *testing.T) {
	s := NewSharded[[]byte](1<<20, 8, byteSize)
	for i := 0; i < 100; i++ {
		s.Put(fmt.Sprintf("k%d", i), make([]byte, 100))
	}
	used := s.UsedBytes()
	if used == 0 {
		t.Fatal("setup: nothing cached")
	}

	// Grow: capacity conserved, residents kept.
	s.Resize(2<<20 + 13)
	if got := s.Capacity(); got != 2<<20+13 {
		t.Fatalf("grow: Capacity = %d, want %d", got, 2<<20+13)
	}
	if got := s.UsedBytes(); got != used {
		t.Fatalf("grow evicted residents: used %d -> %d", used, got)
	}

	// Shrink: every shard evicts down, so the total fits the new budget.
	s.Resize(used / 2)
	if got := s.Capacity(); got != used/2 {
		t.Fatalf("shrink: Capacity = %d, want %d", got, used/2)
	}
	if got := s.UsedBytes(); got > used/2 {
		t.Fatalf("shrink: used %d exceeds new capacity %d", got, used/2)
	}
	if got := s.UsedBytes(); got == 0 {
		t.Fatal("shrink to a non-zero budget should keep some residents")
	}
}
