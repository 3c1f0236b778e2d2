package kv

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cachecost/internal/meter"
)

func durableStore(t *testing.T, fs *MemFS, cfg Config) *Store {
	t.Helper()
	cfg.FS = fs
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestDurableBasicPutGet(t *testing.T) {
	fs := NewMemFS()
	s := durableStore(t, fs, Config{CacheBytes: 1 << 20, MemtableBytes: 1 << 20})
	if ver := s.Put([]byte("a"), []byte("va")); ver != 1 {
		t.Fatalf("first version = %d", ver)
	}
	s.Put([]byte("b"), []byte("vb"))
	val, ver, ok := s.Get([]byte("a"))
	if !ok || string(val) != "va" || ver != 1 {
		t.Fatalf("Get(a) = %q,%d,%v", val, ver, ok)
	}
	if _, _, ok := s.Get([]byte("nope")); ok {
		t.Fatal("a key never put must not be served")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestDurableSurvivesCleanReopen(t *testing.T) {
	fs := NewMemFS()
	s := durableStore(t, fs, Config{CacheBytes: 1 << 20})
	const n = 500
	for i := 0; i < n; i++ {
		s.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%04d", i)))
	}
	s.Put([]byte("k0007"), []byte("v0007-new"))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := durableStore(t, fs, Config{CacheBytes: 1 << 20})
	if got := len(r.Scan(nil, nil)); got != n {
		t.Fatalf("Len after reopen = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%04d", i)
		want := fmt.Sprintf("v%04d", i)
		if key == "k0007" {
			want += "-new" // the overwrite, not the first put, survives
		}
		if val, _, ok := r.Get([]byte(key)); !ok || string(val) != want {
			t.Fatalf("Get(%s) after reopen = %q,%v", key, val, ok)
		}
	}
	if r.Stats().Recoveries != 1 {
		t.Fatalf("Recoveries = %d", r.Stats().Recoveries)
	}
	if r.version != s.version {
		t.Fatalf("version not recovered: %d vs %d", r.version, s.version)
	}
	r.Close()
}

func TestDurableFlushCreatesSSTablesAndDropsWAL(t *testing.T) {
	fs := NewMemFS()
	s := durableStore(t, fs, Config{CacheBytes: 1 << 20, MemtableBytes: 2048})
	for i := 0; i < 200; i++ {
		s.Put([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte("x"), 64))
	}
	st := s.Stats()
	if st.Flushes == 0 {
		t.Fatal("memtable over budget must flush")
	}
	if st.WALAppends != 200 {
		t.Fatalf("WALAppends = %d", st.WALAppends)
	}
	if st.WALFsyncs == 0 || st.WALBytes == 0 {
		t.Fatalf("wal counters: %+v", st)
	}
	names, _ := fs.List()
	var ssts, wals int
	for _, n := range names {
		if strings.HasSuffix(n, ".sst") {
			ssts++
		}
		if strings.HasSuffix(n, ".wal") {
			wals++
		}
	}
	if ssts == 0 {
		t.Fatalf("no sstables written: %v", names)
	}
	if wals != 1 {
		t.Fatalf("flush must retire old wal segments, have %v", names)
	}
	s.Close()
}

func TestDurableCompactionMergesShadowedVersions(t *testing.T) {
	fs := NewMemFS()
	s := durableStore(t, fs, Config{CacheBytes: 1 << 20, MemtableBytes: 1 << 20, CompactAt: 100})
	for i := 0; i < 100; i++ {
		s.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v1"))
	}
	flush(s)
	for i := 0; i < 50; i++ {
		s.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v2"))
	}
	flush(s)
	for i := 0; i < 25; i++ {
		s.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v3"))
	}
	s.Compact()

	st := s.Stats()
	if st.Compactions != 1 {
		t.Fatalf("Compactions = %d", st.Compactions)
	}
	names, _ := fs.List()
	var ssts int
	for _, n := range names {
		if strings.HasSuffix(n, ".sst") {
			ssts++
		}
	}
	if ssts != 1 {
		t.Fatalf("full compaction must leave one table, have %v", names)
	}
	if got := len(s.Scan(nil, nil)); got != 100 {
		t.Fatalf("Len = %d, want 100", got)
	}
	// Invariant: after a full compaction the disk tier's live-byte gauge
	// equals the sum of live entry sizes exactly: no shadowed version
	// survives the merge.
	_, diskLive := s.TierBytes()
	var want int64
	for _, it := range s.Scan(nil, nil) {
		want += int64(len(it.Key) + len(it.Value))
	}
	if diskLive != want {
		t.Fatalf("disk live bytes = %d, want %d", diskLive, want)
	}
	// Each key's newest version survives a reopen; no older one comes back.
	s.Close()
	r := durableStore(t, fs, Config{CacheBytes: 1 << 20})
	for key, want := range map[string]string{"k0010": "v3", "k0030": "v2", "k0080": "v1"} {
		if v, _, ok := r.Get([]byte(key)); !ok || string(v) != want {
			t.Fatalf("%s = %q,%v want %s", key, v, ok, want)
		}
	}
	r.Close()
}

func TestDurableTornTailIsDroppedNotServed(t *testing.T) {
	fs := NewMemFS()
	// Batch fsyncs so a tail of unsynced records exists.
	s := durableStore(t, fs, Config{CacheBytes: 1 << 20, WALSyncEvery: 1000})
	for i := 0; i < 10; i++ {
		s.Put([]byte(fmt.Sprintf("acked%02d", i)), []byte("A"))
	}
	if err := s.Sync(); err != nil { // acknowledgement barrier
		t.Fatalf("Sync: %v", err)
	}
	for i := 0; i < 10; i++ {
		s.Put([]byte(fmt.Sprintf("unacked%02d", i)), []byte("U"))
	}
	// Crash without sync: the unacked tail survives only as a torn prefix.
	fs.Crash(42)

	r := durableStore(t, fs, Config{CacheBytes: 1 << 20})
	for i := 0; i < 10; i++ {
		if v, _, ok := r.Get([]byte(fmt.Sprintf("acked%02d", i))); !ok || string(v) != "A" {
			t.Fatalf("acknowledged write acked%02d lost: %q,%v", i, v, ok)
		}
	}
	// Unacked writes may or may not survive, but any that are served
	// must be intact (the decoder rejects torn records wholesale).
	for _, it := range r.Scan([]byte("unacked"), []byte("unacked~")) {
		if string(it.Value) != "U" {
			t.Fatalf("torn record served: %q=%q", it.Key, it.Value)
		}
	}
	r.Close()
}

func TestDurableTierDemotionAndPromotion(t *testing.T) {
	fs := NewMemFS()
	// Tiny DRAM tier: most values must live on the disk tier only.
	s := durableStore(t, fs, Config{CacheBytes: 2048, MemtableBytes: 4096})
	val := bytes.Repeat([]byte("v"), 128)
	for i := 0; i < 100; i++ {
		s.Put([]byte(fmt.Sprintf("k%04d", i)), val)
	}
	flush(s)
	st := s.Stats()
	if st.TierDemotions == 0 {
		t.Fatalf("expected demotions with a 2 KiB tier: %+v", st)
	}
	// Read a cold key: must pay a disk read and promote.
	pre := s.Stats()
	if _, _, ok := s.Get([]byte("k0000")); !ok {
		t.Fatal("cold key lost")
	}
	mid := s.Stats()
	if mid.DiskReads <= pre.DiskReads {
		t.Fatal("cold read must hit the disk tier")
	}
	if mid.TierPromotions <= pre.TierPromotions {
		t.Fatal("cold read must promote into the DRAM tier")
	}
	// Immediately re-read: now a DRAM tier hit, no disk I/O.
	if _, _, ok := s.Get([]byte("k0000")); !ok {
		t.Fatal("promoted key lost")
	}
	post := s.Stats()
	if post.DiskReads != mid.DiskReads {
		t.Fatal("promoted read must not touch disk")
	}
	if post.TierHits <= mid.TierHits {
		t.Fatal("promoted read must count a tier hit")
	}
	s.Close()
}

func TestDurableBloomSkipsAbsentKeys(t *testing.T) {
	fs := NewMemFS()
	s := durableStore(t, fs, Config{CacheBytes: 0})
	for i := 0; i < 500; i++ {
		s.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v"))
	}
	flush(s)
	pre := s.Stats()
	misses := 0
	for i := 0; i < 200; i++ {
		if _, _, ok := s.Get([]byte(fmt.Sprintf("absent%04d", i))); ok {
			t.Fatal("absent key served")
		}
		misses++
	}
	st := s.Stats()
	if st.BloomNegatives <= pre.BloomNegatives {
		t.Fatal("bloom filter never excluded an absent key")
	}
	// With 10 bits/key the false-positive rate is <1%; allow 10%.
	extraReads := st.DiskReads - pre.DiskReads
	if extraReads > int64(misses/10) {
		t.Fatalf("bloom ineffective: %d disk reads for %d absent-key gets", extraReads, misses)
	}
	s.Close()
}

func TestDurableMetersDiskFootprint(t *testing.T) {
	m := meter.NewMeter()
	fs := NewMemFS()
	cfg := Config{CacheBytes: 1 << 20, Comp: m.Component("storage.kv"), Burner: meter.NewBurner()}
	cfg.FS = fs
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 200; i++ {
		s.Put([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte("x"), 256))
	}
	flush(s)
	got := m.Component("storage.kv").DiskBytes()
	if got != s.dur.fileBytes {
		t.Fatalf("metered disk bytes %d != store footprint %d", got, s.dur.fileBytes)
	}
	if got <= 0 {
		t.Fatal("disk footprint must be positive after a flush")
	}
	var total int64
	for _, f := range fs.files {
		total += int64(len(f.data))
	}
	if got != total {
		t.Fatalf("store footprint %d != filesystem bytes %d", got, total)
	}
	s.Close()
}

func TestDurableDirFS(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 300; i++ {
		s.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	flush(s)
	s.Put([]byte("k0000"), []byte("v0-new"))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := Open(Config{Dir: dir, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := len(r.Scan(nil, nil)); got != 300 {
		t.Fatalf("Len = %d", got)
	}
	if v, _, ok := r.Get([]byte("k0000")); !ok || string(v) != "v0-new" {
		t.Fatalf("k0000 = %q,%v", v, ok)
	}
	if v, _, ok := r.Get([]byte("k0123")); !ok || string(v) != "v123" {
		t.Fatalf("k0123 = %q,%v", v, ok)
	}
	if r.RecoveryTime() <= 0 {
		t.Fatal("recovery time must be recorded")
	}
	r.Close()
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"negative PageBytes", Config{PageBytes: -1}, "PageBytes"},
		{"negative MemtableBytes", Config{MemtableBytes: -4096}, "MemtableBytes"},
		{"negative CacheBytes", Config{CacheBytes: -1}, "CacheBytes"},
		{"negative DiskPenaltyPerByte", Config{DiskPenaltyPerByte: -0.5}, "DiskPenaltyPerByte"},
		{"negative DiskPenaltyPerOp", Config{DiskPenaltyPerOp: -8}, "DiskPenaltyPerOp"},
		{"negative WALSyncEvery", Config{WALSyncEvery: -2}, "WALSyncEvery"},
		{"negative CompactAt", Config{CompactAt: -4}, "CompactAt"},
		{"CompactAt of one", Config{CompactAt: 1}, "CompactAt"},
		{"Dir and FS both set", Config{Dir: "/tmp/x", FS: NewMemFS()}, "mutually exclusive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.validate()
			if err == nil {
				t.Fatalf("validate(%+v) accepted a bad config", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the bad field (%q)", err, tc.want)
			}
			if _, err := Open(tc.cfg); err == nil {
				t.Fatal("Open must reject what validate rejects")
			}
			defer func() {
				if recover() == nil {
					t.Fatal("NewStore must panic on an invalid config")
				}
			}()
			NewStore(tc.cfg)
		})
	}

	// Zero values are documented defaults, not errors.
	if err := (Config{}).validate(); err != nil {
		t.Fatalf("zero config must validate: %v", err)
	}
}

func TestDurableScanMergesTiersInOrder(t *testing.T) {
	fs := NewMemFS()
	s := durableStore(t, fs, Config{CacheBytes: 1 << 20, CompactAt: 100})
	// Three generations: old table, newer table, memtable.
	for i := 0; i < 30; i++ {
		s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("old"))
	}
	flush(s)
	for i := 10; i < 20; i++ {
		s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("mid"))
	}
	flush(s)
	for i := 15; i < 18; i++ {
		s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("new"))
	}

	items := s.Scan([]byte("k05"), []byte("k28"))
	wantLen := 28 - 5
	if len(items) != wantLen {
		t.Fatalf("scan returned %d items, want %d", len(items), wantLen)
	}
	prev := ""
	for _, it := range items {
		if string(it.Key) <= prev {
			t.Fatalf("scan out of order: %q after %q", it.Key, prev)
		}
		prev = string(it.Key)
		i := 0
		fmt.Sscanf(string(it.Key), "k%d", &i)
		want := "old"
		switch {
		case i >= 15 && i < 18:
			want = "new"
		case i >= 10 && i < 20:
			want = "mid"
		}
		if string(it.Value) != want {
			t.Fatalf("key %s = %q, want %q", it.Key, it.Value, want)
		}
	}
	s.Close()
}

func TestDurableGroupCommitBatchesFsyncs(t *testing.T) {
	fs := NewMemFS()
	s := durableStore(t, fs, Config{CacheBytes: 1 << 20, WALSyncEvery: 16})
	for i := 0; i < 160; i++ {
		s.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v"))
	}
	st := s.Stats()
	if st.WALFsyncs != 10 {
		t.Fatalf("WALFsyncs = %d, want 10 (160 appends / 16 per group)", st.WALFsyncs)
	}
	s.Close()
}

// TestDurableFilesGolden pins the durable engine's bytes on disk. A seeded
// put/get mix on a MemFS runs through several flushes and compactions, and
// the sha256 of every WAL segment and SSTable it leaves must match. Any
// change to the WAL framing, the SSTable layout, or what a flush or a
// compaction writes changes them.
func TestDurableFilesGolden(t *testing.T) {
	fs := NewMemFS()
	s := durableStore(t, fs, Config{CacheBytes: 16 << 10, MemtableBytes: 8 << 10, CompactAt: 3})
	rng := rand.New(rand.NewSource(1))
	mix := func(ops int) {
		for i := 0; i < ops; i++ {
			key := []byte(fmt.Sprintf("key-%04d", rng.Intn(400)))
			if rng.Intn(2) == 0 {
				val := make([]byte, 1+rng.Intn(64))
				rng.Read(val)
				s.Put(key, val)
			} else {
				s.Get(key)
			}
		}
	}
	// The mix's own flushes compact; the forced one leaves a second table
	// beside the compacted one, and the last ops a WAL with records in it.
	mix(1200)
	flush(s)
	mix(40)
	if st := s.Stats(); st.Flushes < 2 || st.Compactions < 1 {
		t.Fatalf("mix ran %d flushes and %d compactions, want >= 2 and >= 1", st.Flushes, st.Compactions)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	want := map[string]string{
		"000012.sst": "af5571aea0dc92896790ba2521d91dc7608ebee28216a1e9172c2ec09d15f89f",
		"000013.sst": "1a52e4b2fba4b9f79bab473e13628cacb5278fb8980c76cf3e65d9878fb9bbfe",
		"000014.wal": "7cbd9bb3758b327eb5c0e4e517245d1ef0e3e0497132ad141cc56ce8f4bfe908",
	}
	names, _ := fs.List()
	sort.Strings(names)
	if len(names) != len(want) {
		t.Errorf("files %v, want %d", names, len(want))
	}
	for _, name := range names {
		sum := sha256.Sum256(fs.files[name].data)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: sha256 %s, want %s", name, got, want[name])
		}
	}
}
