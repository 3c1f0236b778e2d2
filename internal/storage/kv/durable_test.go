package kv

import (
	"bytes"
	"fmt"
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

func TestDurableBasicPutGetDelete(t *testing.T) {
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
	if !s.Delete([]byte("a")) {
		t.Fatal("Delete(a) should report existence")
	}
	if _, _, ok := s.Get([]byte("a")); ok {
		t.Fatal("deleted key must not be served")
	}
	if s.Delete([]byte("nope")) {
		t.Fatal("Delete of missing key must report false")
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
	s.Delete([]byte("k0007"))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := durableStore(t, fs, Config{CacheBytes: 1 << 20})
	if got := len(r.Scan(nil, nil, 0)); got != n-1 {
		t.Fatalf("Len after reopen = %d, want %d", got, n-1)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%04d", i)
		val, _, ok := r.Get([]byte(key))
		if key == "k0007" {
			if ok {
				t.Fatal("tombstone lost across reopen")
			}
			continue
		}
		if !ok || string(val) != fmt.Sprintf("v%04d", i) {
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

func TestDurableCompactionMergesAndGCsTombstones(t *testing.T) {
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
		s.Delete([]byte(fmt.Sprintf("k%04d", i)))
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
	if got := len(s.Scan(nil, nil, 0)); got != 75 {
		t.Fatalf("Len = %d, want 75", got)
	}
	// Invariant: after a full compaction the disk tier's live-byte gauge
	// equals the sum of live entry sizes exactly.
	_, diskLive := s.TierBytes()
	var want int64
	for _, it := range s.Scan(nil, nil, 0) {
		want += int64(len(it.Key) + len(it.Value))
	}
	if diskLive != want {
		t.Fatalf("disk live bytes = %d, want %d", diskLive, want)
	}
	// Deleted keys stay gone after reopen (no resurrection).
	s.Close()
	r := durableStore(t, fs, Config{CacheBytes: 1 << 20})
	for i := 0; i < 25; i++ {
		if _, _, ok := r.Get([]byte(fmt.Sprintf("k%04d", i))); ok {
			t.Fatalf("tombstoned key k%04d resurrected", i)
		}
	}
	if v, _, ok := r.Get([]byte("k0030")); !ok || string(v) != "v2" {
		t.Fatalf("k0030 = %q,%v want v2", v, ok)
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
	for _, it := range r.Scan([]byte("unacked"), []byte("unacked~"), 0) {
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
	s.Delete([]byte("k0000"))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := Open(Config{Dir: dir, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := len(r.Scan(nil, nil, 0)); got != 299 {
		t.Fatalf("Len = %d", got)
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
	s.Delete([]byte("k25"))
	flush(s)
	for i := 15; i < 18; i++ {
		s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("new"))
	}

	items := s.Scan([]byte("k05"), []byte("k28"), 0)
	wantLen := 28 - 5 - 1 // k25 deleted
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
	// Limit honored.
	if got := s.Scan([]byte("k05"), []byte("k28"), 3); len(got) != 3 {
		t.Fatalf("limit ignored: %d", len(got))
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
