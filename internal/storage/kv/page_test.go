package kv

import (
	"bytes"
	"fmt"
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

// TestDecodedPageEntriesDoNotShareCapacity: a decoded page's keys and
// values alias one copy of the encoded page, each clipped to its length,
// so growing one entry never writes into its neighbour; and a write that
// lands in a cached page leaves values Get lent earlier and the page's
// other entries as they were.
func TestDecodedPageEntriesDoNotShareCapacity(t *testing.T) {
	s := NewStore(Config{PageBytes: 4096, CacheBytes: 1 << 20})
	const n = 8
	for i := 0; i < n; i++ {
		s.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("value-%d", i)))
	}
	flush(s)

	p := s.pages[0]
	dp := decodePage(p.encoded, p.n)
	if len(dp.keys) != n || len(dp.vals) != n || len(dp.vers) != n {
		t.Fatalf("decoded %d/%d/%d entries, want %d", len(dp.keys), len(dp.vals), len(dp.vers), n)
	}
	for i := 0; i < n; i++ {
		if cap(dp.keys[i]) != len(dp.keys[i]) || cap(dp.vals[i]) != len(dp.vals[i]) {
			t.Fatalf("entry %d: capacity not clipped (key %d/%d, value %d/%d)",
				i, len(dp.keys[i]), cap(dp.keys[i]), len(dp.vals[i]), cap(dp.vals[i]))
		}
	}
	_ = append(dp.vals[0], "XXXXXXXXXXXXXXXX"...)
	_ = append(dp.keys[0], "XXXXXXXXXXXXXXXX"...)
	for i := 0; i < n; i++ {
		if k, v := string(dp.keys[i]), string(dp.vals[i]); k != fmt.Sprintf("k%d", i) || v != fmt.Sprintf("value-%d", i) {
			t.Fatalf("entry %d = %q: %q after appending to entry 0", i, k, v)
		}
	}
	at := bytes.Index(p.encoded, []byte("value-0"))
	p.encoded[at] ^= 0xFF // the decoded page reads its own copy
	if string(dp.vals[0]) != "value-0" {
		t.Fatal("decoded page aliases the encoded page")
	}
	p.encoded[at] ^= 0xFF

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
