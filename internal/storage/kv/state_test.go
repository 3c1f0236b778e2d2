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

// stateHash drives a seeded Put/Get mix over a 256 KB memtable and a
// block cache of cacheBytes, and hashes everything the store's state is:
// each page's id, first key, encoding and entry count; the block cache's
// keys in recency order; the version; every Stats field and CacheStats;
// the Burner's sink (which chains every modeled unit burned, in order);
// and every Get answer along the way.
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
	st := s.stats
	for _, v := range []int64{
		st.Gets, st.Puts, st.Scans, st.MemtableHits, st.Flushes,
		st.DiskReads, st.DiskReadBytes, st.DiskWrites, st.DiskWriteBytes,
		st.WALAppends, st.WALFsyncs, st.WALBytes, st.Compactions, st.CompactionBytes,
		st.TierHits, st.TierPromotions, st.TierDemotions, st.BloomNegatives, st.Recoveries,
	} {
		put(uint64(v))
	}
	fmt.Fprintf(h, "%+v", s.bcache.Stats())
	put(b.Sink())
	return hex.EncodeToString(h.Sum(nil))
}

// TestStoreStateGolden pins the store's whole state after a seeded op
// mix at three value sizes: one entry per page (16 KB), tens per page
// (1 KB) and over a thousand (10 B); each over a block cache a few pages
// deep and over none, where every page a flush reads back, including
// one the same flush already stored, is a miss. The hashes were re-pinned
// when the store became put-only: the mix lost its deletes and Stats its
// Deletes field, and the new pins were computed by this same body against
// the engine that still had Delete, so every put, flush, page and burn is
// as it was. Any change to what a flush writes, what the block cache
// holds, what a page read or write counts or what it burns changes them.
func TestStoreStateGolden(t *testing.T) {
	for _, tc := range []struct {
		valueSize  int
		cacheBytes int64
		want       string
	}{
		{10, 128 << 10, "1fc520870019f0c08b77937dc40bfb1439d3f289050d27a5b4576016c21fcd6d"},
		{1 << 10, 128 << 10, "c63ab04b915153cee7d503d4b78e1dd883de9bf2e0086183074a23e1bb830dfc"},
		{16 << 10, 128 << 10, "a75bb80173aa67dd05939d8f39db6cfa5e2eea89831c052d7209bcc8b4aca7de"},
		{10, 0, "2f73b538e59a4790cd2caaab998b60f30890360f05d8828d68f0ef341b75d22f"},
		{1 << 10, 0, "5e51ef6dd8c1069d78fce115a912406bef4d1f54fdbc408d48971834105025c7"},
		{16 << 10, 0, "23562d4b2b0ddb32c98d51d20be45aa1501d24f3efb957e825e420c247243d68"},
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
