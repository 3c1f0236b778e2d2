package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"cachecost/internal/meter"
)

func newTestStore() *Store {
	return NewStore(Config{PageBytes: 512, CacheBytes: 1 << 20})
}

func TestPutGet(t *testing.T) {
	s := newTestStore()
	v1 := s.Put([]byte("k1"), []byte("hello"))
	val, ver, ok := s.Get([]byte("k1"))
	if !ok || string(val) != "hello" || ver != v1 {
		t.Fatalf("Get = %q v%d %v", val, ver, ok)
	}
	if _, _, ok := s.Get([]byte("missing")); ok {
		t.Fatal("missing key should not be found")
	}
}

func TestVersionsMonotonic(t *testing.T) {
	s := newTestStore()
	var last Version
	for i := 0; i < 100; i++ {
		v := s.Put([]byte(fmt.Sprintf("k%d", i%10)), []byte("v"))
		if v <= last {
			t.Fatalf("version %d not greater than %d", v, last)
		}
		last = v
	}
	if s.version != last {
		t.Fatalf("version = %d, want %d", s.version, last)
	}
}

func TestOverwriteBumpsVersion(t *testing.T) {
	s := newTestStore()
	v1 := s.Put([]byte("k"), []byte("a"))
	v2 := s.Put([]byte("k"), []byte("b"))
	if v2 <= v1 {
		t.Fatal("overwrite should bump version")
	}
	val, ver, _ := s.Get([]byte("k"))
	if string(val) != "b" || ver != v2 {
		t.Fatalf("Get after overwrite = %q v%d", val, ver)
	}
	if len(s.Scan(nil, nil)) != 1 {
		t.Fatalf("%d live keys, want 1", len(s.Scan(nil, nil)))
	}
}

func TestVersionOf(t *testing.T) {
	s := newTestStore()
	v := s.Put([]byte("k"), []byte("val"))
	got, ok := s.VersionOf([]byte("k"))
	if !ok || got != v {
		t.Fatalf("VersionOf = %d %v, want %d", got, ok, v)
	}
	if _, ok := s.VersionOf([]byte("nope")); ok {
		t.Fatal("VersionOf missing key should report absence")
	}
}

func TestPageSplitsKeepOrder(t *testing.T) {
	s := NewStore(Config{PageBytes: 256, CacheBytes: 1 << 20})
	rng := rand.New(rand.NewSource(1))
	keys := make([]string, 500)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%06d", rng.Intn(100000))
	}
	for _, k := range keys {
		s.Put([]byte(k), bytes.Repeat([]byte("x"), 32))
	}
	flush(s)
	if len(s.pages) < 10 {
		t.Fatalf("expected many pages after inserts, got %d", len(s.pages))
	}
	items := s.Scan(nil, nil)
	for i := 1; i < len(items); i++ {
		if bytes.Compare(items[i-1].Key, items[i].Key) >= 0 {
			t.Fatalf("scan out of order at %d: %q >= %q", i, items[i-1].Key, items[i].Key)
		}
	}
	// Every inserted key must be retrievable.
	for _, k := range keys {
		if _, _, ok := s.Get([]byte(k)); !ok {
			t.Fatalf("key %q lost after splits", k)
		}
	}
}

func TestScanRange(t *testing.T) {
	s := newTestStore()
	for i := 0; i < 50; i++ {
		s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte{byte(i)})
	}
	items := s.Scan([]byte("k10"), []byte("k20"))
	if len(items) != 10 {
		t.Fatalf("range scan returned %d items, want 10", len(items))
	}
	if string(items[0].Key) != "k10" || string(items[9].Key) != "k19" {
		t.Fatalf("range bounds wrong: %q .. %q", items[0].Key, items[9].Key)
	}
	empty := s.Scan([]byte("z"), nil)
	if len(empty) != 0 {
		t.Fatalf("scan past end returned %d items", len(empty))
	}
}

func TestScanAcrossManyPages(t *testing.T) {
	s := NewStore(Config{PageBytes: 128, CacheBytes: 1 << 20})
	for i := 0; i < 200; i++ {
		s.Put([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte("v"), 20))
	}
	items := s.Scan([]byte("k0050"), []byte("k0150"))
	if len(items) != 100 {
		t.Fatalf("cross-page scan returned %d, want 100", len(items))
	}
}

// TestGetLendsStoredValue: Get lends the stored value instead of copying
// it, which is safe because the store never rewrites a value it holds. A
// lent value stays as it was through an overwrite of its key and a
// flush, from the memtable and from a page alike, and its
// capacity is clipped, so an append reallocates instead of writing into
// the store.
func TestGetLendsStoredValue(t *testing.T) {
	s := newTestStore()
	s.Put([]byte("k"), append(make([]byte, 0, 64), "original"...))
	fromMem, _, _ := s.Get([]byte("k"))
	if cap(fromMem) != len(fromMem) {
		t.Fatalf("lent value has capacity %d for length %d", cap(fromMem), len(fromMem))
	}
	_ = append(fromMem, "XXXX"...)
	flush(s)
	fromPage, _, _ := s.Get([]byte("k"))
	s.Put([]byte("k"), []byte("replaced"))
	flush(s)
	if string(fromMem) != "original" || string(fromPage) != "original" {
		t.Fatalf("lent values changed to %q and %q", fromMem, fromPage)
	}
	s.Put([]byte("j"), []byte("value"))
	if got := testing.AllocsPerRun(100, func() { s.Get([]byte("j")) }); got != 0 {
		t.Errorf("Get from the memtable: %v allocs, want 0", got)
	}
}

func TestBlockCacheHitAvoidsDisk(t *testing.T) {
	s := NewStore(Config{PageBytes: 4096, CacheBytes: 1 << 20})
	s.Put([]byte("k"), []byte("v"))
	flush(s)
	before := s.Stats().DiskReads
	for i := 0; i < 100; i++ {
		s.Get([]byte("k"))
	}
	after := s.Stats().DiskReads
	if after != before {
		t.Fatalf("cached reads should not touch disk: %d -> %d", before, after)
	}
	cs := s.CacheStats()
	if cs.Hits < 100 {
		t.Fatalf("block cache hits = %d, want >= 100", cs.Hits)
	}
}

func TestNoCacheAlwaysReadsDisk(t *testing.T) {
	s := NewStore(Config{PageBytes: 4096, CacheBytes: 0})
	s.Put([]byte("k"), []byte("v"))
	flush(s) // move past the memtable so reads hit the page path
	before := s.Stats().DiskReads
	for i := 0; i < 10; i++ {
		s.Get([]byte("k"))
	}
	if got := s.Stats().DiskReads - before; got != 10 {
		t.Fatalf("uncached store should read disk every time, got %d reads", got)
	}
}

func TestMeteredStoreAttributesTime(t *testing.T) {
	m := meter.NewMeter()
	s := NewStore(Config{
		PageBytes:  512,
		CacheBytes: 4 << 10,
		Comp:       m.Component("storage.kv"),
		Burner:     meter.NewBurner(),
	})
	for i := 0; i < 200; i++ {
		s.Put([]byte(fmt.Sprintf("k%03d", i)), bytes.Repeat([]byte("v"), 100))
	}
	if m.Component("storage.kv").Busy() <= 0 {
		t.Fatal("store work should be metered")
	}
	if m.Component("storage.kv").MemBytes() != 4<<10 {
		t.Fatalf("cache provision should be metered, got %d", m.Component("storage.kv").MemBytes())
	}
}

// TestLoadBurnsNothing: inside a BulkLoad scope, Puts that cross a
// memtable flush and page splits leave a caller's Burner and the metered
// component as they were; the same Puts outside the scope burn and meter.
// The loaded state is the store's all the same.
func TestLoadBurnsNothing(t *testing.T) {
	for _, loaded := range []bool{true, false} {
		m := meter.NewMeter()
		b := meter.NewBurner()
		s := NewStore(Config{PageBytes: 512, CacheBytes: 4 << 10, MemtableBytes: 8 << 10, Comp: m.Component("kv"), Burner: b})
		sink := b.Sink()
		puts := func() {
			for i := 0; i < 200; i++ {
				s.Put([]byte(fmt.Sprintf("k%03d", i)), bytes.Repeat([]byte("v"), 100))
			}
		}
		if loaded {
			s.BulkLoad(puts)
		} else {
			puts()
		}
		if st := s.Stats(); st.Flushes == 0 || st.DiskWrites == 0 {
			t.Fatalf("loaded=%v: the Puts never flushed: %+v", loaded, st)
		}
		c := m.Component("kv")
		if burned := b.Sink() != sink; burned == loaded {
			t.Errorf("loaded=%v: Burner sink moved = %v", loaded, burned)
		}
		if metered := c.Ops() != 0 || c.Busy() != 0; metered == loaded {
			t.Errorf("loaded=%v: component metered %d ops, %v busy", loaded, c.Ops(), c.Busy())
		}
		if v, _, ok := s.Get([]byte("k123")); !ok || len(v) != 100 {
			t.Fatalf("loaded=%v: k123 = %q, %v", loaded, v, ok)
		}
	}
}

func TestDiskPenaltyScalesWithValueSize(t *testing.T) {
	if raceEnabled {
		t.Skip("measured cost ratios are distorted by race-detector instrumentation")
	}
	busyFor := func(valSize int) int64 {
		m := meter.NewMeter()
		s := NewStore(Config{
			PageBytes:  16 << 10,
			CacheBytes: 0, // force disk on every access
			Comp:       m.Component("kv"),
			Burner:     meter.NewBurner(),
		})
		s.Put([]byte("k"), bytes.Repeat([]byte("x"), valSize))
		flush(s)
		m.Reset()
		for i := 0; i < 20; i++ {
			s.Get([]byte("k"))
		}
		return int64(m.Component("kv").Busy())
	}
	small := busyFor(1 << 10)
	large := busyFor(256 << 10)
	if large < small*10 {
		t.Fatalf("disk penalty should scale with value size: 1KB=%d 256KB=%d", small, large)
	}
}

func TestDataBytesTracksContent(t *testing.T) {
	s := newTestStore()
	if s.DataBytes() <= 0 {
		// Even the empty page has an encoded representation; just ensure
		// it grows with data.
	}
	before := s.DataBytes()
	s.Put([]byte("k"), bytes.Repeat([]byte("v"), 10000))
	if s.DataBytes() <= before {
		t.Fatal("DataBytes should grow with inserts")
	}
	grown := s.DataBytes()
	s.Put([]byte("k"), []byte("v"))
	if s.DataBytes() >= grown {
		t.Fatal("DataBytes should shrink when a value is overwritten with a smaller one")
	}
}

func TestStoreMatchesReferenceMap(t *testing.T) {
	// Property test: a sequence of random ops against the store must agree
	// with a plain map + version counter.
	type op struct {
		Kind int // 0 put, 1 get, 2 versionOf
		Key  uint8
		Val  uint16
	}
	f := func(ops []op) bool {
		s := NewStore(Config{PageBytes: 256, CacheBytes: 8 << 10})
		ref := make(map[string][]byte)
		refVer := make(map[string]Version)
		var ver Version
		for _, o := range ops {
			key := []byte(fmt.Sprintf("k%d", o.Key%32))
			switch o.Kind % 3 {
			case 0:
				val := bytes.Repeat([]byte{byte(o.Val)}, int(o.Val%64)+1)
				ver++
				s.Put(key, val)
				ref[string(key)] = val
				refVer[string(key)] = ver
			case 1:
				got, gotVer, ok := s.Get(key)
				want, wantOK := ref[string(key)]
				if ok != wantOK {
					return false
				}
				if ok && (!bytes.Equal(got, want) || gotVer != refVer[string(key)]) {
					return false
				}
			case 2:
				gotVer, ok := s.VersionOf(key)
				_, wantOK := ref[string(key)]
				if ok != wantOK {
					return false
				}
				if ok && gotVer != refVer[string(key)] {
					return false
				}
			}
		}
		// Final scan must equal the sorted reference contents.
		items := s.Scan(nil, nil)
		if len(items) != len(ref) {
			return false
		}
		keys := make([]string, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			if string(items[i].Key) != k || !bytes.Equal(items[i].Value, ref[k]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore(Config{PageBytes: 512, CacheBytes: 64 << 10})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 300; i++ {
				key := []byte(fmt.Sprintf("k%03d", rng.Intn(100)))
				switch rng.Intn(3) {
				case 0:
					s.Put(key, bytes.Repeat([]byte("v"), rng.Intn(100)+1))
				case 1:
					s.Get(key)
				case 2:
					s.Scan(key, nil)
				}
			}
		}(w)
	}
	wg.Wait() // run with -race
	items := s.Scan(nil, nil)
	for i := 1; i < len(items); i++ {
		if bytes.Compare(items[i-1].Key, items[i].Key) >= 0 {
			t.Fatal("order violated after concurrent load")
		}
	}
}

func TestLargeValuesOwnPage(t *testing.T) {
	s := NewStore(Config{PageBytes: 1024, CacheBytes: 1 << 20})
	big := bytes.Repeat([]byte("B"), 1<<20) // 1MB value, as in the paper's sweep
	s.Put([]byte("big"), big)
	s.Put([]byte("a"), []byte("small"))
	s.Put([]byte("z"), []byte("small"))
	got, _, ok := s.Get([]byte("big"))
	if !ok || !bytes.Equal(got, big) {
		t.Fatal("1MB value roundtrip failed")
	}
	if v, _, _ := s.Get([]byte("a")); string(v) != "small" {
		t.Fatal("small neighbours corrupted by large value")
	}
}

func BenchmarkGetCached(b *testing.B) {
	s := NewStore(Config{PageBytes: 16 << 10, CacheBytes: 64 << 20})
	for i := 0; i < 1000; i++ {
		s.Put([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte("v"), 1024))
	}
	keys := make([][]byte, 1000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%04d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(keys[i%1000])
	}
}

func BenchmarkGetUncached(b *testing.B) {
	s := NewStore(Config{PageBytes: 16 << 10, CacheBytes: 0})
	for i := 0; i < 1000; i++ {
		s.Put([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte("v"), 1024))
	}
	keys := make([][]byte, 1000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%04d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(keys[i%1000])
	}
}

func BenchmarkPut1KB(b *testing.B) {
	s := NewStore(Config{PageBytes: 16 << 10, CacheBytes: 64 << 20})
	val := bytes.Repeat([]byte("v"), 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put([]byte(fmt.Sprintf("k%06d", i%10000)), val)
	}
}
