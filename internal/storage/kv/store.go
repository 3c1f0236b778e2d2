// Package kv implements the storage engine underneath the mini distributed
// database: an LSM-flavored ordered key-value store — writes land in a
// memtable backed by a WAL charge and are flushed to encoded pages in
// batches; reads go through a byte-budgeted block cache over those pages.
// It plays the role TiKV (RocksDB) and its block cache play in the paper's
// testbed (§5.1).
//
// The cost model is honest rather than synthetic: authoritative data lives
// in encoded (serialized) pages; a read that misses both the memtable and
// the block cache pays a calibrated disk-penalty CPU burn plus the real
// CPU of decoding the page, while hits touch only in-memory forms. The
// burn is the whole disk read: the decode copies nothing, because an
// encoded page is never rewritten, so its decoded keys and values alias
// it. Writes pay an append-style WAL charge immediately and the page
// re-encode cost only at flush time, amortized across the batch — so
// storage CPU scales with value size on both paths exactly as the paper
// observes (§5.3, Figure 6), without overcharging writes with
// read-modify-write page churn a real LSM does not do.
package kv

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"cachecost/internal/cache"
	"cachecost/internal/meter"
)

// Version is a monotonically increasing per-store write sequence number.
// The row version consulted by consistent reads (§5.5) is the Version of
// the last Put to that key.
type Version = uint64

// Item is one key-value record with its write version.
type Item struct {
	Key     []byte
	Value   []byte
	Version Version
}

// Config parameterizes a Store. Zero values mean "use the documented
// default"; negative values are configuration errors that fail fast
// (validate returns a descriptive error; NewStore panics with it).
type Config struct {
	// PageBytes is the target encoded size of one page. Pages split when
	// they exceed it. Default 16 KiB.
	PageBytes int
	// CacheBytes is the DRAM budget (the paper's s_D). In-memory stores
	// spend it on the block cache over encoded pages; durable stores
	// spend it on the DRAM value tier — the hot set served without
	// touching the disk tier. Zero means no cache: every miss of the
	// memtable goes to "disk".
	CacheBytes int64
	// MemtableBytes is the write-buffer budget; when pending writes
	// exceed it they are flushed to pages. Default 4 MiB.
	MemtableBytes int64

	// Dir, when set, makes the store durable: state lives in this
	// directory (WAL + SSTables) and survives Close/reopen and crashes.
	// Mutually exclusive with FS.
	Dir string
	// FS, when set, makes the store durable on the given filesystem
	// (e.g. a MemFS for crash-simulation tests, or a fault-injecting
	// wrapper). Mutually exclusive with Dir.
	FS FS
	// WALSyncEvery group-commits the write-ahead log: one fsync per N
	// appended records. 1 (the default) fsyncs every write; larger
	// values trade a longer unacknowledged window for fewer fsyncs.
	// Writes are only guaranteed durable after Sync returns.
	WALSyncEvery int
	// CompactAt triggers a full k-way-merge compaction when the table
	// count reaches it. Default 4.
	CompactAt int
	// DiskPenaltyPerByte is the CPU work (Burner units) charged per
	// encoded byte read from "disk", modeling the I/O stack on a
	// block-cache miss. Default 1.
	DiskPenaltyPerByte float64
	// DiskPenaltyPerOp is the fixed CPU work charged per disk access,
	// modeling the per-I/O overhead of the storage stack. Default 8192.
	DiskPenaltyPerOp int
	// Comp receives the store's busy time and provisioned cache memory.
	// Nil disables metering.
	Comp *meter.Component
	// Burner performs the disk-penalty work. Required if Comp is set.
	Burner *meter.Burner
}

// diskWritePenaltyPerByte is the per-byte work on the write path.
// Writes append to a WAL and pages are flushed asynchronously, so the
// synchronous per-byte cost is a quarter of a read's default.
const diskWritePenaltyPerByte = 0.25

// validate rejects configurations that would otherwise misbehave
// silently. Each failure names the offending field and value.
func (c Config) validate() error {
	switch {
	case c.PageBytes < 0:
		return fmt.Errorf("kv: Config.PageBytes must be positive (or 0 for the 16 KiB default), got %d", c.PageBytes)
	case c.MemtableBytes < 0:
		return fmt.Errorf("kv: Config.MemtableBytes must be positive (or 0 for the 4 MiB default), got %d", c.MemtableBytes)
	case c.CacheBytes < 0:
		return fmt.Errorf("kv: Config.CacheBytes must be >= 0, got %d", c.CacheBytes)
	case c.DiskPenaltyPerByte < 0:
		return fmt.Errorf("kv: Config.DiskPenaltyPerByte must be >= 0, got %v", c.DiskPenaltyPerByte)
	case c.DiskPenaltyPerOp < 0:
		return fmt.Errorf("kv: Config.DiskPenaltyPerOp must be >= 0, got %d", c.DiskPenaltyPerOp)
	case c.WALSyncEvery < 0:
		return fmt.Errorf("kv: Config.WALSyncEvery must be positive (or 0 for fsync-every-write), got %d", c.WALSyncEvery)
	case c.CompactAt < 0:
		return fmt.Errorf("kv: Config.CompactAt must be >= 2 (or 0 for the default 4), got %d", c.CompactAt)
	case c.CompactAt == 1:
		return fmt.Errorf("kv: Config.CompactAt must be >= 2 (or 0 for the default 4), got %d", c.CompactAt)
	case c.Dir != "" && c.FS != nil:
		return fmt.Errorf("kv: Config.Dir (%q) and Config.FS are mutually exclusive", c.Dir)
	}
	return nil
}

func (c *Config) applyDefaults() {
	if c.PageBytes <= 0 {
		c.PageBytes = 16 << 10
	}
	if c.MemtableBytes <= 0 {
		c.MemtableBytes = 4 << 20
	}
	if c.DiskPenaltyPerByte == 0 {
		c.DiskPenaltyPerByte = 1
	}
	if c.DiskPenaltyPerOp == 0 {
		c.DiskPenaltyPerOp = 8192
	}
	if c.WALSyncEvery <= 0 {
		c.WALSyncEvery = 1
	}
	if c.CompactAt <= 0 {
		c.CompactAt = 4
	}
	if c.Comp != nil && c.Burner == nil {
		c.Burner = meter.NewBurner()
	}
}

// durableCfg reports whether the configuration asks for a durable store.
func (c Config) durableCfg() bool { return c.Dir != "" || c.FS != nil }

// Stats counts store-level events. The fields below Flushes are only
// nonzero for durable stores.
type Stats struct {
	Gets           int64
	Puts           int64
	Scans          int64
	MemtableHits   int64
	Flushes        int64
	DiskReads      int64
	DiskReadBytes  int64
	DiskWrites     int64
	DiskWriteBytes int64

	WALAppends      int64 // records appended to the write-ahead log
	WALFsyncs       int64 // group commits actually issued
	WALBytes        int64 // framed bytes appended
	Compactions     int64 // full k-way merges completed
	CompactionBytes int64 // bytes written by compaction outputs
	TierHits        int64 // reads served by the DRAM value tier
	TierPromotions  int64 // values copied disk→DRAM after a tier miss
	TierDemotions   int64 // values evicted DRAM→disk-only (LRU cold)
	BloomNegatives  int64 // table probes skipped by the bloom filter
	Recoveries      int64 // WAL replays performed at open
}

// Store is an ordered KV store with a memtable and block cache. All
// methods are safe for concurrent use.
type Store struct {
	cfg Config

	mu       sync.Mutex
	pages    []*page // sorted by firstKey; always at least one page
	nextID   uint64
	version  Version
	stats    Stats
	bcache   *cache.LRU[decodedPage] // block cache, guarded by mu
	mem      map[string]*memEntry    // pending writes
	memBytes int64
	dur      *durable // non-nil for durable stores; see durable.go

	// loading counts open BulkLoad scopes. Atomic because track reads it
	// before taking mu.
	loading atomic.Int32
}

// memEntry is one pending write in the memtable.
type memEntry struct {
	val []byte
	ver Version
}

// page is the authoritative, "on disk" form of a key range. A page a
// flush stores is held decoded in pending (and dirty) until the flush
// ends, which encodes it once however many of the flush's keys it
// absorbed; size is its encoded length all along. encoded is immutable:
// a new encoding replaces the slice and never writes into the old one,
// which decoded pages may still alias.
type page struct {
	id       uint64
	cacheKey string // the page's block-cache key, formatted once
	firstKey []byte // lower bound of the page's range; nil for the first page
	encoded  []byte
	pending  decodedPage // stored by the running flush, not yet encoded
	dirty    bool        // pending holds the page, encoded is stale
	size     int         // len(encoded), or encodedLen(pending) while dirty
	n        int         // entry count, tracked to avoid decoding for sizing
}

func newPage(id uint64, firstKey []byte) *page {
	return &page{id: id, cacheKey: "p" + strconv.FormatUint(id, 10), firstKey: firstKey}
}

// NewStore returns an empty store. It panics on an invalid Config or a
// durable-open failure; use Open to handle those as errors (recovery of
// an existing directory can legitimately fail on corrupt state).
func NewStore(cfg Config) *Store {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open validates cfg and returns a store. With Dir or FS set the store
// is durable: existing SSTables are loaded (fail-closed on corruption),
// the WAL is replayed up to its last acknowledged record, and new writes
// are logged before they are acknowledged.
func Open(cfg Config) (*Store, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	s := &Store{cfg: cfg, nextID: 1, mem: make(map[string]*memEntry)}
	first := newPage(0, nil)
	first.encoded = encodePage(nil)
	s.pages = []*page{first}
	s.bcache = cache.NewLRU[decodedPage](cfg.CacheBytes, func(_ string, dp decodedPage) int64 {
		var n int64
		for _, en := range dp {
			n += int64(len(en.key) + len(en.val) + 16)
		}
		return n
	})
	if cfg.durableCfg() {
		if err := s.openDurable(); err != nil {
			return nil, err
		}
	}
	if cfg.Comp != nil {
		cfg.Comp.SetMemBytes(cfg.CacheBytes)
	}
	return s, nil
}

// BulkLoad runs fn as a bulk load: the store calls fn makes do all their
// real work — memtable, flushes, page splits, block-cache puts, versions
// and, on a durable store, the WAL and SSTables — but burn no modeled
// disk penalty and open no meter stopwatch, so loading leaves both the
// Burner and the metered component as they were. It is a scope, not a
// mode: calls from other goroutines while fn runs are unmetered too, so
// callers serialise them (storage.Node.Bootstrap holds the node's
// statement lock).
func (s *Store) BulkLoad(fn func()) {
	s.loading.Add(1)
	defer s.loading.Add(-1)
	fn()
}

// track wraps a critical section with meter attribution.
func (s *Store) track(fn func()) {
	if s.cfg.Comp == nil || s.loading.Load() != 0 {
		fn()
		return
	}
	sw := s.cfg.Comp.Start()
	fn()
	sw.Stop()
}

func (s *Store) burnDisk(n int, perByte float64) {
	if s.loading.Load() != 0 {
		return
	}
	work := s.cfg.DiskPenaltyPerOp + int(perByte*float64(n))
	if s.cfg.Burner != nil {
		s.cfg.Burner.Burn(work)
	} else {
		// Unmetered stores still pay the work so behaviour does not
		// depend on metering; use a shared static burner.
		staticBurner.Burn(work)
	}
}

var staticBurner = meter.NewBurner()

// pageIdx returns the index of the page whose range contains key.
func (s *Store) pageIdx(key []byte) int {
	// First page whose firstKey > key, minus one.
	i := sort.Search(len(s.pages), func(i int) bool {
		return bytes.Compare(s.pages[i].firstKey, key) > 0
	})
	if i == 0 {
		return 0
	}
	return i - 1
}

// loadPage returns the decoded form of page p, via the block cache.
func (s *Store) loadPage(p *page) decodedPage {
	if dp, ok := s.bcache.Get(p.cacheKey); ok {
		return dp
	}
	// Block-cache miss: pay the disk read and decode. A page the running
	// flush stored is read back as stored: its encoded bytes are stale.
	s.stats.DiskReads++
	s.stats.DiskReadBytes += int64(p.size)
	s.burnDisk(p.size, s.cfg.DiskPenaltyPerByte)
	dp := p.pending
	if !p.dirty {
		dp = decodePage(p.encoded, p.n)
	}
	s.bcache.Put(p.cacheKey, dp)
	return dp
}

// storePage makes dp the authoritative form of p and writes it "to
// disk", updating the block cache write-through. The write is counted
// and charged at dp's encoded size now; the encoding itself waits for
// the end of the flush (encodeDirty), so a page that absorbs many keys
// is encoded once.
func (s *Store) storePage(p *page, dp decodedPage) {
	p.pending, p.dirty = dp, true
	p.size = encodedLen(dp)
	p.n = len(dp)
	s.stats.DiskWrites++
	s.stats.DiskWriteBytes += int64(p.size)
	s.burnDisk(p.size, diskWritePenaltyPerByte)
	s.bcache.Put(p.cacheKey, dp)
}

// encodeDirty encodes every page the running flush stored, once each.
// Callers hold s.mu.
func (s *Store) encodeDirty() {
	for _, p := range s.pages {
		if !p.dirty {
			continue
		}
		p.encoded = encodePage(p.pending)
		if len(p.encoded) != p.size {
			panic(fmt.Sprintf("kv: page %d encoded to %d bytes, sized %d", p.id, len(p.encoded), p.size))
		}
		p.pending, p.dirty = nil, false
	}
}

// Get returns the value and its version. The value is lent, not copied:
// a stored value is never rewritten — a Put replaces the slice, a flush
// or a block-cache load builds new pages around it — so the caller may
// read it for as long as it likes, and must not write it. Its capacity
// is clipped, so an append reallocates.
func (s *Store) Get(key []byte) (val []byte, ver Version, ok bool) {
	s.track(func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.stats.Gets++
		if e, hit := s.mem[string(key)]; hit {
			s.stats.MemtableHits++
			val, ver, ok = e.val, e.ver, true
			return
		}
		if s.dur != nil {
			val, ver, ok = s.durGet(key)
			return
		}
		p := s.pages[s.pageIdx(key)]
		dp := s.loadPage(p)
		i, found := dp.find(key)
		if !found {
			return
		}
		val, ver, ok = dp[i].val, dp[i].ver, true
	})
	return val[:len(val):len(val)], ver, ok
}

// VersionOf returns the version of key without copying the value. It
// still traverses the full page-load path on a memtable miss: as the
// paper notes (§5.5), "even a seemingly trivial version check ...
// fetches the full row".
func (s *Store) VersionOf(key []byte) (ver Version, ok bool) {
	s.track(func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.stats.Gets++
		if e, hit := s.mem[string(key)]; hit {
			s.stats.MemtableHits++
			ver, ok = e.ver, true
			return
		}
		if s.dur != nil {
			_, ver, ok = s.durGet(key)
			return
		}
		p := s.pages[s.pageIdx(key)]
		dp := s.loadPage(p)
		i, found := dp.find(key)
		if !found {
			return
		}
		ver = dp[i].ver
		ok = true
	})
	return ver, ok
}

// Put inserts or replaces key, returning the new version. The write
// lands in the memtable after a WAL append charge; pages absorb it at
// the next flush. The store keeps value itself, not a copy: the caller
// gives it up and must not change it afterwards (DESIGN.md, "Buffer
// ownership"). key is only read; the memtable copies it when the key is
// new to it, and rewrites the entry of a key it holds in place.
func (s *Store) Put(key, value []byte) (ver Version) {
	s.track(func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.stats.Puts++
		s.version++
		ver = s.version
		if s.dur != nil {
			// Real WAL append (CRC-framed, group-committed).
			s.durAppend(WALRecord{Version: ver, Key: key, Value: value})
			s.durTierWrite(string(key), value, ver)
		} else {
			// WAL append: sequential write of the record.
			s.burnDisk(len(key)+len(value), diskWritePenaltyPerByte)
		}
		*s.memSlot(key) = memEntry{val: value, ver: ver}
		s.memBytes += int64(len(value))
		if s.memBytes > s.cfg.MemtableBytes {
			s.flushLocked()
		}
	})
	return ver
}

// memSlot returns key's memtable entry for a write (a Put or a replayed
// WAL record) to overwrite, taking the old value out of memBytes. A key
// the memtable does not hold yet is added: the key is copied then, and
// only then. Callers hold s.mu.
func (s *Store) memSlot(key []byte) *memEntry {
	if e, ok := s.mem[string(key)]; ok {
		s.memBytes -= int64(len(e.val))
		return e
	}
	e := new(memEntry)
	s.mem[string(key)] = e
	s.memBytes += int64(len(key)) + 48
	return e
}

// flushLocked applies every memtable entry to the page store (or, for a
// durable store, writes it out as a new SSTable) and clears the
// memtable. Callers hold s.mu.
func (s *Store) flushLocked() {
	if len(s.mem) == 0 {
		return
	}
	if s.dur != nil {
		s.durFlush()
		return
	}
	s.stats.Flushes++
	keys := make([]string, 0, len(s.mem))
	for k := range s.mem {
		keys = append(keys, k)
	}
	sort.Strings(keys) // page-order locality, as a real flush has
	for _, k := range keys {
		e := s.mem[k]
		s.applyToPages([]byte(k), e.val, e.ver)
	}
	s.encodeDirty()
	clear(s.mem) // the map's storage is reused by the next memtable
	s.memBytes = 0
}

// applyToPages inserts or replaces key in the page store. Callers hold
// s.mu.
func (s *Store) applyToPages(key, value []byte, ver Version) {
	idx := s.pageIdx(key)
	p := s.pages[idx]
	dp := s.loadPage(p)
	i, found := dp.find(key)
	// Other references to the loaded page (the block cache, a lent
	// value's page) must not see the write: change a copy of its entries,
	// made with room for one more.
	ndp := append(make(decodedPage, 0, len(dp)+1), dp...)
	if found {
		ndp[i].val, ndp[i].ver = value, ver
	} else {
		ndp = slices.Insert(ndp, i, entry{key: append([]byte(nil), key...), val: value, ver: ver})
	}
	s.storePage(p, ndp)
	s.maybeSplit(idx)
}

// Scan returns the items with start <= key < end (end nil = no upper
// bound), in key order, merging the memtable over the page store.
func (s *Store) Scan(start, end []byte) (items []Item) {
	s.track(func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.stats.Scans++
		if s.dur != nil {
			items = s.durScan(start, end)
			return
		}

		// Pending writes in range, sorted.
		var memKeys []string
		for k := range s.mem {
			kb := []byte(k)
			if bytes.Compare(kb, start) >= 0 && (end == nil || bytes.Compare(kb, end) < 0) {
				memKeys = append(memKeys, k)
			}
		}
		sort.Strings(memKeys)

		pageItems := s.scanPagesLocked(start, end)

		// Merge, memtable winning on equal keys.
		mi, pi := 0, 0
		for mi < len(memKeys) || pi < len(pageItems) {
			var takeMem bool
			switch {
			case mi >= len(memKeys):
				takeMem = false
			case pi >= len(pageItems):
				takeMem = true
			default:
				c := bytes.Compare([]byte(memKeys[mi]), pageItems[pi].Key)
				if c == 0 {
					pi++ // shadowed by the memtable entry
				}
				takeMem = c <= 0
			}
			if takeMem {
				e := s.mem[memKeys[mi]]
				items = append(items, Item{
					Key:     []byte(memKeys[mi]),
					Value:   append([]byte(nil), e.val...),
					Version: e.ver,
				})
				mi++
			} else {
				items = append(items, pageItems[pi])
				pi++
			}
		}
	})
	return items
}

// scanPagesLocked collects page items in range. Callers hold s.mu.
func (s *Store) scanPagesLocked(start, end []byte) (items []Item) {
	idx := s.pageIdx(start)
	for ; idx < len(s.pages); idx++ {
		p := s.pages[idx]
		if end != nil && bytes.Compare(p.firstKey, end) >= 0 && idx > 0 {
			break
		}
		dp := s.loadPage(p)
		i, _ := dp.find(start)
		for _, en := range dp[i:] {
			if end != nil && bytes.Compare(en.key, end) >= 0 {
				return items
			}
			items = append(items, Item{
				Key:     append([]byte(nil), en.key...),
				Value:   append([]byte(nil), en.val...),
				Version: en.ver,
			})
		}
	}
	return items
}

// DataBytes returns the total encoded bytes "on disk" — the quantity the
// storage line item of the cost model prices. It forces a memtable flush
// so pending writes are included.
func (s *Store) DataBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	if s.dur != nil {
		return s.dur.fileBytes
	}
	var n int64
	for _, p := range s.pages {
		n += int64(p.size)
	}
	return n
}

// Stats returns store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// CacheStats returns the block cache's counters (the DRAM value tier's
// for a durable store).
func (s *Store) CacheStats() cache.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur != nil {
		if s.dur.tier == nil {
			return cache.Stats{}
		}
		return s.dur.tier.Stats()
	}
	return s.bcache.Stats()
}

// maybeSplit splits pages[idx] if it exceeds the page size target.
// Callers hold s.mu. A page with a single oversized entry is left alone.
func (s *Store) maybeSplit(idx int) {
	p := s.pages[idx]
	if p.size <= s.cfg.PageBytes || p.n < 2 {
		return
	}
	dp := s.loadPage(p)
	mid := len(dp) / 2
	left, right := dp[:mid:mid], dp[mid:]

	np := newPage(s.nextID, append([]byte(nil), right[0].key...))
	s.nextID++
	s.storePage(p, left)
	s.storePage(np, right)
	s.pages = append(s.pages, nil)
	copy(s.pages[idx+2:], s.pages[idx+1:])
	s.pages[idx+1] = np
	// Recurse in case one half is still oversized (giant values).
	s.maybeSplit(idx)
	// Right half index may have shifted if the left split again; find it.
	for i := idx + 1; i < len(s.pages); i++ {
		if s.pages[i] == np {
			s.maybeSplit(i)
			break
		}
	}
}
