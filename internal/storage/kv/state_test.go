package kv

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"cachecost/internal/meter"
)

// stateHash drives a seeded Put/Delete/Get mix over a 256 KB memtable
// and a block cache of cacheBytes, and hashes everything the store's
// state is:
// each page's id, first key, encoding and entry count; the block cache's
// keys in recency order; the version; Stats and CacheStats; the Burner's
// sink (which chains every modeled unit burned, in order); and every Get
// answer along the way.
func stateHash(valueSize int, cacheBytes int64) string {
	const (
		keys = 1500
		ops  = 4000
	)
	b := meter.NewBurner()
	s := NewStore(Config{MemtableBytes: 256 << 10, CacheBytes: cacheBytes, Burner: b})
	rng := rand.New(rand.NewSource(int64(valueSize)))
	h := sha256.New()
	var num [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(num[:], v)
		h.Write(num[:])
	}
	field := func(p []byte) {
		put(uint64(len(p)))
		h.Write(p)
	}
	for i := 0; i < ops; i++ {
		key := []byte(fmt.Sprintf("key-%05d", rng.Intn(keys)))
		switch r := rng.Intn(10); {
		case r < 5:
			val := make([]byte, valueSize/2+rng.Intn(valueSize+1))
			rng.Read(val)
			put(s.Put(key, val))
		case r < 6:
			if s.Delete(key) {
				put(1)
			} else {
				put(0)
			}
		default:
			val, ver, ok := s.Get(key)
			field(val)
			put(ver)
			if ok {
				put(1)
			}
		}
	}
	flush(s)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.pages {
		put(p.id)
		field(p.firstKey)
		field(p.encoded)
		put(uint64(p.n))
	}
	for _, k := range s.bcache.Keys() {
		field([]byte(k))
	}
	put(s.version)
	fmt.Fprintf(h, "%+v %+v", s.stats, s.bcache.Stats())
	put(b.Sink())
	return hex.EncodeToString(h.Sum(nil))
}

// TestStoreStateGolden pins the store's whole state after a seeded op
// mix at three value sizes: one entry per page (16 KB), tens per page
// (1 KB) and over a thousand (10 B); each over a block cache a few pages
// deep and over none, where every page a flush reads back, including
// one the same flush already stored, is a miss. The hashes were computed before
// flushes deferred page encoding to their end, and re-pinned only when
// cache.Stats lost its Expirations field, which reads 0 in every case; any
// change to what a flush writes, what the block cache holds, what a page
// read or write counts or what it burns changes them.
func TestStoreStateGolden(t *testing.T) {
	for _, tc := range []struct {
		valueSize  int
		cacheBytes int64
		want       string
	}{
		{10, 128 << 10, "84c501dc6946d981be4825846393cbab263faf5396502d7ae9594673dd398776"},
		{1 << 10, 128 << 10, "4ac2ac2dd169bbc5cc19f0d14354ed1d4f41d24a74e3d441bee6f7b934c91461"},
		{16 << 10, 128 << 10, "1cc1b919164641d4018954d088cc1fd5d9f8d4329ec70dd24a89cdac26d63c3f"},
		{10, 0, "e7278cb767a6ee8d7b0bed88d2d6b55618122482af36e5250a9794251f46fbab"},
		{1 << 10, 0, "3856276ea168930b8f8f1e9088bf80a4e25dc7c7d3a79971b253655151a71ca8"},
		{16 << 10, 0, "7442bb45c54fb83dfe33327cc3b14ea804c48b080b09ad0ef7501a39816c249b"},
	} {
		if got := stateHash(tc.valueSize, tc.cacheBytes); got != tc.want {
			t.Errorf("%d B values, %d B cache: state hash %s, want %s", tc.valueSize, tc.cacheBytes, got, tc.want)
		}
	}
}

// TestFlushEncodesEachPageOnce bounds the bytes one flush allocates. 240
// updates of neighbouring 1 KB rows land on about 16 of the store's 16 KB
// pages. Encoding a page once per flush writes about 16 pages; encoding
// it once per applied key, as flushes did before, wrote 240 of them
// (2.4 MB in all).
func TestFlushEncodesEachPageOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	s := NewStore(Config{CacheBytes: 64 << 20})
	row := func(i int) []byte { return []byte(fmt.Sprintf("row-%05d", i)) }
	for i := 0; i < 2000; i++ {
		s.Put(row(i), make([]byte, 1<<10))
	}
	flush(s)
	for i := 500; i < 740; i++ {
		s.Put(row(i), make([]byte, 1<<10))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	flush(s)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("flush of 240 rows allocated %d B", got)
	const bound = 600 << 10 // parent: 2,407,984 B; now about 428 KB
	if got > bound {
		t.Errorf("flush of 240 rows allocated %d B, want <= %d B", got, bound)
	}
}
