package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// TestBlockCacheHitAllocs pins the block-cache hit path: a Get lends the
// value and a VersionOf reads a version, and neither allocates. The
// page's cache key is formatted once, when the page is created (before,
// every load formatted it: 2 and 1), and the value is not copied (before,
// Get allocated that copy: 1).
func TestBlockCacheHitAllocs(t *testing.T) {
	s := NewStore(Config{PageBytes: 4096, CacheBytes: 1 << 20})
	key := []byte("row-7")
	s.Put(key, []byte("payload"))
	flush(s)
	s.Get(key) // warm the block cache
	if got := testing.AllocsPerRun(200, func() { s.Get(key) }); got != 0 {
		t.Errorf("Get on a block-cache hit: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() { s.VersionOf(key) }); got != 0 {
		t.Errorf("VersionOf on a block-cache hit: %v allocs, want 0", got)
	}
	if hits := s.CacheStats().Hits; hits < 400 {
		t.Fatalf("block cache hits = %d: the reads did not take the hit path", hits)
	}
}

// TestBlockCacheMissAllocs pins a page load: with no block cache every
// Get and VersionOf decodes the page, and the decode allocates only its
// entries slice, aliasing the encoded page instead of copying it (before:
// 4, the copy, two key/value header arrays and the versions).
func TestBlockCacheMissAllocs(t *testing.T) {
	s := NewStore(Config{PageBytes: 4096})
	for i := 0; i < 8; i++ {
		s.Put([]byte(fmt.Sprintf("row-%d", i)), []byte("payload"))
	}
	flush(s)
	key := []byte("row-3")
	reads := s.Stats().DiskReads
	if got := testing.AllocsPerRun(200, func() { s.Get(key) }); got != 1 {
		t.Errorf("Get on a block-cache miss: %v allocs, want 1", got)
	}
	if got := testing.AllocsPerRun(200, func() { s.VersionOf(key) }); got != 1 {
		t.Errorf("VersionOf on a block-cache miss: %v allocs, want 1", got)
	}
	if n := s.Stats().DiskReads - reads; n < 400 {
		t.Fatalf("%d disk reads: the reads did not take the miss path", n)
	}
}

// TestFlushIntoCachedPageAllocs pins a flush of one overwritten key into a
// cached page at 3 allocations (before: 7, then 4): the page's entries are
// cloned into one slice (before: a page struct and three slices) and
// encoded into one buffer (before: an encoder and its buffer); the flush's
// key list and the key's conversion are the rest. The memtable map is
// emptied and kept (before: a fresh map per flush).
func TestFlushIntoCachedPageAllocs(t *testing.T) {
	s := NewStore(Config{PageBytes: 4096, CacheBytes: 1 << 20})
	for i := 0; i < 8; i++ {
		s.Put([]byte(fmt.Sprintf("row-%d", i)), []byte("payload"))
	}
	flush(s)
	key, val := []byte("row-3"), []byte("updated")
	s.Get(key) // the page is cached
	// testing.AllocsPerRun's method, with the Put left out of the count:
	// one warm-up run, one P, and the mean rounded down.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s.Put(key, val)
	flush(s)
	var before, after runtime.MemStats
	var mallocs uint64
	const runs = 100
	for i := 0; i < runs; i++ {
		s.Put(key, val)
		runtime.ReadMemStats(&before)
		flush(s)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	if got := mallocs / runs; got != 3 {
		t.Errorf("flush of one key into a cached page: %d allocs, want 3", got)
	}
	if st := s.Stats(); st.DiskReads != 1 {
		t.Fatalf("%d disk reads: the flushes did not find the page cached", st.DiskReads)
	}
}

// TestDecodedPageEntriesDoNotShareCapacity: a decoded page's keys and
// values alias the encoded page, each clipped to its length, so growing
// one entry never writes into its neighbour; and a write that lands in a
// cached page leaves values Get lent earlier and the page's other entries
// as they were.
func TestDecodedPageEntriesDoNotShareCapacity(t *testing.T) {
	s := NewStore(Config{PageBytes: 4096, CacheBytes: 1 << 20})
	const n = 8
	for i := 0; i < n; i++ {
		s.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("value-%d", i)))
	}
	flush(s)

	p := s.pages[0]
	dp := decodePage(p.encoded, p.n)
	if len(dp) != n {
		t.Fatalf("decoded %d entries, want %d", len(dp), n)
	}
	for i, en := range dp {
		if cap(en.key) != len(en.key) || cap(en.val) != len(en.val) {
			t.Fatalf("entry %d: capacity not clipped (key %d/%d, value %d/%d)",
				i, len(en.key), cap(en.key), len(en.val), cap(en.val))
		}
	}
	_ = append(dp[0].val, "XXXXXXXXXXXXXXXX"...)
	_ = append(dp[0].key, "XXXXXXXXXXXXXXXX"...)
	for i, en := range dp {
		if k, v := string(en.key), string(en.val); k != fmt.Sprintf("k%d", i) || v != fmt.Sprintf("value-%d", i) {
			t.Fatalf("entry %d = %q: %q after appending to entry 0", i, k, v)
		}
	}

	s.Get([]byte("k0")) // the page is cached
	before, _, _ := s.Get([]byte("k3"))
	s.Put([]byte("k3"), []byte("new"))
	s.Put([]byte("k35"), []byte("inserted"))
	flush(s)
	if string(before) != "value-3" {
		t.Fatalf("earlier Get = %q after a write to its key", before)
	}
	want := map[string]string{"k3": "new", "k35": "inserted"}
	for i := 0; i < n; i++ {
		if i != 3 {
			want[fmt.Sprintf("k%d", i)] = fmt.Sprintf("value-%d", i)
		}
	}
	for k, w := range want {
		if v, _, ok := s.Get([]byte(k)); !ok || string(v) != w {
			t.Errorf("Get(%q) = %q %v, want %q", k, v, ok, w)
		}
	}
}

// TestEncodedPagesNeverRewritten proves what lets a decoded page alias its
// encoded page: once a page is encoded, nothing writes into those bytes.
// A seeded mix of puts and gets drives flushes, splits and block-cache
// evictions; every page.encoded slice ever seen, and every value Get
// lent, is snapshotted with a copy of its bytes, and at the end each
// must still read as it did.
func TestEncodedPagesNeverRewritten(t *testing.T) {
	s := NewStore(Config{PageBytes: 256, CacheBytes: 2 << 10, MemtableBytes: 1 << 10})
	type snapshot struct{ b, was []byte }
	var snaps []snapshot
	seen := map[*byte]int{} // first byte → length, for each encoding snapshotted
	keep := func(b []byte) { snaps = append(snaps, snapshot{b, bytes.Clone(b)}) }
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		key := []byte(fmt.Sprintf("k%03d", rng.Intn(300)))
		if rng.Intn(2) == 0 {
			val := make([]byte, 1+rng.Intn(40))
			rng.Read(val)
			s.Put(key, val)
		} else if v, _, ok := s.Get(key); ok {
			keep(v)
		}
		s.mu.Lock()
		for _, p := range s.pages {
			if len(p.encoded) > 0 && seen[&p.encoded[0]] != len(p.encoded) {
				seen[&p.encoded[0]] = len(p.encoded)
				keep(p.encoded)
			}
		}
		s.mu.Unlock()
	}
	st, cs := s.Stats(), s.CacheStats()
	if st.Flushes < 10 || len(s.pages) < 10 || cs.Evictions == 0 || st.DiskReads == 0 {
		t.Fatalf("%d flushes, %d pages, %d evictions, %d disk reads: the mix exercised too little",
			st.Flushes, len(s.pages), cs.Evictions, st.DiskReads)
	}
	for i, sn := range snaps {
		if !bytes.Equal(sn.b, sn.was) {
			t.Fatalf("snapshot %d of %d (%d bytes) was rewritten", i, len(snaps), len(sn.b))
		}
	}
}
