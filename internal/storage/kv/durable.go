package kv

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"time"

	"cachecost/internal/cache"
)

// durable is the persistent engine behind a Store opened with a Dir or
// FS. Writes append to a CRC-framed WAL (group-committed every
// WALSyncEvery records) and land in the memtable; flushes turn the
// memtable into immutable SSTables; a full k-way-merge compaction folds
// the tables together, keeping each key's newest version, once CompactAt
// tables accumulate. The engine is put-only: no record or entry it writes
// deletes a key. Reads consult memtable → DRAM value tier → tables
// newest-first (bloom filters skip tables that cannot hold the key).
//
// The DRAM tier is the cost story: hot values are served from memory
// (priced as DRAM rent), cold values fall off the LRU — a demotion — and
// later reads pay the disk tier's miss penalty instead. The meter prices
// both residencies plus the miss-driven read I/O, turning the paper's
// two-point memory model into a tunable DRAM:disk frontier.
//
// All engine state is guarded by the owning Store's mutex. I/O errors
// on the write path panic: this is a crash-only design — a storage
// engine that cannot reach its log must die and recover, never
// acknowledge writes it cannot make durable.
type durable struct {
	fs FS

	wal        *walWriter
	walPending int      // appends since the last fsync
	syncEvery  int      // fsync every N appends (1 = every write)
	oldWALs    []string // replayed segments, deleted at the next flush

	tables  []*ssTable // ascending seq: newest last
	nextSeq uint64     // next file sequence (shared by .wal and .sst)

	tier *cache.LRU[tierValue] // DRAM value tier; nil when budget is 0

	sizes        map[string]int64 // current size of every file
	fileBytes    int64            // Σ sizes — the disk footprint the meter prices
	reportedDisk int64            // last footprint pushed to the component

	recoveryNanos int64
	closed        bool
}

// tierValue is one DRAM-resident value with its version.
type tierValue struct {
	val []byte
	ver Version
}

func walName(seq uint64) string { return fmt.Sprintf("%06d.wal", seq) }

func walSeq(name string) (uint64, bool) {
	if !strings.HasSuffix(name, ".wal") {
		return 0, false
	}
	var seq uint64
	_, err := fmt.Sscanf(strings.TrimSuffix(name, ".wal"), "%d", &seq)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// openDurable recovers engine state from cfg's filesystem and installs
// it on s. Called from Open/NewStore before the store is shared.
func (s *Store) openDurable() error {
	t0 := time.Now()
	fs := s.cfg.FS
	if fs == nil {
		var err error
		fs, err = DirFS(s.cfg.Dir)
		if err != nil {
			return err
		}
	}
	d := &durable{
		fs:        fs,
		syncEvery: s.cfg.WALSyncEvery,
		sizes:     make(map[string]int64),
	}
	if budget := s.cfg.CacheBytes; budget > 0 {
		d.tier = cache.NewLRU[tierValue](budget, func(k string, v tierValue) int64 {
			return int64(len(k)+len(v.val)) + 48
		})
		d.tier.SetEvictFunc(func(string, tierValue) {
			s.stats.TierDemotions++
		})
	}

	names, err := fs.List()
	if err != nil {
		return fmt.Errorf("kv: list: %w", err)
	}

	// 1. Clear leftovers from a crash mid-write: a .tmp table was never
	// committed by rename, so it does not exist as far as recovery is
	// concerned.
	var walSegs []uint64
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			if err := fs.Remove(name); err != nil {
				return fmt.Errorf("kv: remove tmp: %w", err)
			}
			continue
		}
		if seq, ok := sstSeq(name); ok {
			t, err := openSSTable(fs, name)
			if err != nil {
				// Fail closed: a committed table that does not validate
				// means real corruption, not a crash artifact.
				return err
			}
			d.tables = append(d.tables, t)
			d.sizes[name] = t.size
			d.fileBytes += t.size
			if seq >= d.nextSeq {
				d.nextSeq = seq + 1
			}
			if t.maxVersion > uint64(s.version) {
				s.version = Version(t.maxVersion)
			}
			continue
		}
		if seq, ok := walSeq(name); ok {
			walSegs = append(walSegs, seq)
			if seq >= d.nextSeq {
				d.nextSeq = seq + 1
			}
		}
	}
	sort.Slice(d.tables, func(i, j int) bool { return d.tables[i].seq < d.tables[j].seq })
	sort.Slice(walSegs, func(i, j int) bool { return walSegs[i] < walSegs[j] })

	// 2. Replay WAL segments in order. Each segment replays up to its
	// first torn or corrupt frame; records beyond that point were never
	// covered by an acknowledged fsync (append-only file, sequential
	// fsync barrier), so dropping them cannot lose an acknowledged
	// write — and a record that fails its checksum is never applied.
	for _, seq := range walSegs {
		name := walName(seq)
		f, err := fs.Open(name)
		if err != nil {
			return fmt.Errorf("kv: open wal: %w", err)
		}
		size, err := fs.Size(name)
		if err != nil {
			f.Close()
			return fmt.Errorf("kv: stat wal: %w", err)
		}
		_, err = replayWAL(f, size, func(rec WALRecord) {
			*s.memSlot(rec.Key) = memEntry{val: rec.Value, ver: rec.Version}
			s.memBytes += int64(len(rec.Value))
			if rec.Version > s.version {
				s.version = rec.Version
			}
		})
		f.Close()
		if err != nil {
			return err
		}
		d.sizes[name] = size
		d.fileBytes += size
		d.oldWALs = append(d.oldWALs, name)
	}

	// 3. Start a fresh active segment. Replayed segments stay on disk
	// until the memtable they back is flushed into a table — unless they
	// contributed nothing, in which case they are redundant now.
	if err := d.rotateWAL(); err != nil {
		return err
	}
	if len(s.mem) == 0 {
		if err := d.dropOldWALs(); err != nil {
			return err
		}
	}

	s.dur = d
	s.stats.Recoveries++
	d.recoveryNanos = time.Since(t0).Nanoseconds()
	s.syncDiskMeter()
	return nil
}

// rotateWAL opens a new active segment, leaving the previous one (if
// any) queued for deletion at the next flush.
func (d *durable) rotateWAL() error {
	if d.wal != nil {
		if _, err := d.wal.sync(); err != nil {
			return err
		}
		if err := d.wal.close(); err != nil {
			return fmt.Errorf("kv: wal close: %w", err)
		}
		d.oldWALs = append(d.oldWALs, d.wal.name)
	}
	name := walName(d.nextSeq)
	d.nextSeq++
	f, err := d.fs.Create(name)
	if err != nil {
		return fmt.Errorf("kv: create wal: %w", err)
	}
	d.wal = newWALWriter(f, name)
	d.walPending = 0
	d.sizes[name] = 0
	return nil
}

// dropOldWALs deletes segments whose records are all covered by tables.
func (d *durable) dropOldWALs() error {
	for _, name := range d.oldWALs {
		if err := d.fs.Remove(name); err != nil {
			return fmt.Errorf("kv: remove wal: %w", err)
		}
		d.fileBytes -= d.sizes[name]
		delete(d.sizes, name)
	}
	d.oldWALs = nil
	return nil
}

// mustDur panics with context; see the crash-only note on durable.
func mustDur(err error) {
	if err != nil {
		panic(fmt.Sprintf("kv: durable engine cannot continue: %v", err))
	}
}

// durAppend logs one record, group-committing per the sync policy, and
// charges the write-path disk penalty. Callers hold s.mu.
func (s *Store) durAppend(rec WALRecord) {
	d := s.dur
	n, err := d.wal.append(rec)
	mustDur(err)
	d.sizes[d.wal.name] += int64(n)
	d.fileBytes += int64(n)
	s.stats.WALAppends++
	s.stats.WALBytes += int64(n)
	s.stats.DiskWrites++
	s.stats.DiskWriteBytes += int64(n)
	s.burnDisk(n, diskWritePenaltyPerByte)
	d.walPending++
	if d.walPending >= d.syncEvery {
		s.durSync()
	}
}

// durSync group-commits pending WAL appends. Callers hold s.mu.
func (s *Store) durSync() {
	d := s.dur
	synced, err := d.wal.sync()
	mustDur(err)
	if synced {
		s.stats.WALFsyncs++
	}
	d.walPending = 0
}

// Sync makes every acknowledged-so-far write durable (fsyncs the WAL).
// It is the explicit group-commit barrier: a caller that needs the
// synced-equals-acknowledged contract (cmd/crashtest, replication acks)
// calls Sync before acknowledging. No-op for in-memory stores.
func (s *Store) Sync() error {
	if s.dur == nil {
		return nil
	}
	var err error
	s.track(func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		var synced bool
		synced, err = s.dur.wal.sync()
		if synced {
			s.stats.WALFsyncs++
		}
		s.dur.walPending = 0
	})
	return err
}

// Close syncs the WAL and releases every file handle. The store must
// not be used afterwards; reopen with Open on the same Dir/FS.
func (s *Store) Close() error {
	if s.dur == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.dur
	if d.closed {
		return nil
	}
	d.closed = true
	_, err := d.wal.sync()
	if cerr := d.wal.close(); err == nil {
		err = cerr
	}
	for _, t := range d.tables {
		t.close()
	}
	return err
}

// RecoveryTime returns how long replay-on-open took for a durable
// store (zero for in-memory stores or fresh directories with no state).
func (s *Store) RecoveryTime() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur == nil {
		return 0
	}
	return time.Duration(s.dur.recoveryNanos)
}

// TierBytes reports the two tier levels: DRAM-resident bytes (memtable +
// value tier + table index/bloom overhead) and the live logical bytes on
// the disk tier (Σ key+value over live table entries; exact right after
// a compaction, an upper bound between them while shadowed versions
// still exist).
func (s *Store) TierBytes() (dramBytes, diskLiveBytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur == nil {
		return 0, 0
	}
	return s.tierBytesLocked()
}

func (s *Store) tierBytesLocked() (dramBytes, diskLiveBytes int64) {
	d := s.dur
	dramBytes = s.memBytes
	if d.tier != nil {
		dramBytes += d.tier.UsedBytes()
	}
	for _, t := range d.tables {
		dramBytes += t.overhead
		diskLiveBytes += int64(t.liveBytes)
	}
	return dramBytes, diskLiveBytes
}

// syncDiskMeter pushes the current disk footprint delta to the metering
// component. Callers hold s.mu.
func (s *Store) syncDiskMeter() {
	d := s.dur
	if s.cfg.Comp == nil || d == nil {
		return
	}
	if delta := d.fileBytes - d.reportedDisk; delta != 0 {
		s.cfg.Comp.AddDiskBytes(delta)
		d.reportedDisk = d.fileBytes
	}
}

// ---------------------------------------------------------------------------
// Read path

// durGet looks key up below the memtable: DRAM tier first, then tables
// newest-first. Callers hold s.mu and have already checked the memtable.
func (s *Store) durGet(key []byte) (val []byte, ver Version, ok bool) {
	d := s.dur
	k := string(key)
	if d.tier != nil {
		if tv, hit := d.tier.Get(k); hit {
			s.stats.TierHits++
			return tv.val, tv.ver, true
		}
	}
	for i := len(d.tables) - 1; i >= 0; i-- {
		t := d.tables[i]
		v, tver, found, bytesRead, err := t.get(key)
		if bytesRead > 0 {
			s.stats.DiskReads++
			s.stats.DiskReadBytes += int64(bytesRead)
			s.burnDisk(bytesRead, s.cfg.DiskPenaltyPerByte)
		} else if !found {
			s.stats.BloomNegatives++
		}
		mustDur(err)
		if !found {
			continue
		}
		v = append([]byte(nil), v...) // detach from the block buffer
		if d.tier != nil {
			d.tier.Put(k, tierValue{val: v, ver: tver})
			s.stats.TierPromotions++
		}
		return v, tver, true
	}
	return nil, 0, false
}

// durTierWrite keeps the DRAM tier write-through coherent with a Put.
// Callers hold s.mu.
func (s *Store) durTierWrite(key string, val []byte, ver Version) {
	d := s.dur
	if d.tier == nil {
		return
	}
	// Only update entries already resident (plus admit fresh writes):
	// write-through keeps versions coherent; the LRU decides residency.
	d.tier.Put(key, tierValue{val: append([]byte(nil), val...), ver: ver})
}

// ---------------------------------------------------------------------------
// Flush and compaction

// durFlush writes the memtable to a new SSTable, rotates the WAL, and
// deletes segments the new table supersedes. Callers hold s.mu.
func (s *Store) durFlush() {
	d := s.dur
	if len(s.mem) == 0 {
		return
	}
	s.stats.Flushes++
	keys := make([]string, 0, len(s.mem))
	for k := range s.mem {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	w, err := newSSTWriter(d.fs, d.nextSeq)
	mustDur(err)
	d.nextSeq++
	for _, k := range keys {
		e := s.mem[k]
		mustDur(w.add([]byte(k), e.val, e.ver))
	}
	name, size, err := w.finish()
	mustDur(err)
	t, err := openSSTable(d.fs, name)
	mustDur(err)
	d.tables = append(d.tables, t)
	d.sizes[name] = size
	d.fileBytes += size
	s.stats.DiskWrites++
	s.stats.DiskWriteBytes += size
	s.burnDisk(int(size), diskWritePenaltyPerByte)

	clear(s.mem) // the map's storage is reused by the next memtable
	s.memBytes = 0

	// The new table covers everything the old segments held.
	mustDur(d.rotateWAL())
	mustDur(d.dropOldWALs())

	if len(d.tables) >= s.cfg.CompactAt {
		s.durCompact()
	}
	s.syncDiskMeter()
}

// tableIter is a pull iterator over one table, used by the k-way merge.
type tableIter struct {
	t        *ssTable
	blockIdx int
	block    []byte
	key, val []byte
	ver      Version
	read     int64 // file bytes fetched
	done     bool
}

func newTableIter(t *ssTable) *tableIter { return &tableIter{t: t} }

// seek positions the iterator at the first key >= start.
func (it *tableIter) seek(start []byte) error {
	if len(start) > 0 {
		i := sort.Search(len(it.t.refs), func(i int) bool {
			return bytes.Compare(it.t.refs[i].firstKey, start) > 0
		})
		if i > 0 {
			it.blockIdx = i - 1
		}
	}
	for {
		if err := it.next(); err != nil {
			return err
		}
		if it.done || bytes.Compare(it.key, start) >= 0 {
			return nil
		}
	}
}

// next advances to the following entry; it.done marks exhaustion.
func (it *tableIter) next() error {
	for len(it.block) == 0 {
		if it.blockIdx >= len(it.t.refs) {
			it.done = true
			return nil
		}
		ref := it.t.refs[it.blockIdx]
		it.blockIdx++
		b, err := it.t.readBlock(ref)
		if err != nil {
			return err
		}
		it.read += int64(ref.length)
		it.block = b
	}
	k, v, ver, n, err := decodeEntry(it.block)
	if err != nil {
		return err
	}
	it.key, it.val, it.ver = k, v, ver
	it.block = it.block[n:]
	return nil
}

// durCompact folds every table into one via a k-way merge, dropping
// shadowed versions. Input tables are deleted oldest-first after the
// output commits: if a crash interrupts the deletions, recovery sees the
// output shadowing whatever inputs remain. Callers hold s.mu.
func (s *Store) durCompact() {
	d := s.dur
	if len(d.tables) < 2 {
		return
	}
	s.stats.Compactions++

	iters := make([]*tableIter, len(d.tables))
	for i, t := range d.tables {
		iters[i] = newTableIter(t)
		mustDur(iters[i].next())
	}
	w, err := newSSTWriter(d.fs, d.nextSeq)
	mustDur(err)
	d.nextSeq++

	for {
		// Smallest key across live iterators; ties resolve to the newest
		// table (highest index — tables is sorted by ascending seq).
		winner := -1
		for i, it := range iters {
			if it.done {
				continue
			}
			if winner < 0 || bytes.Compare(it.key, iters[winner].key) < 0 ||
				(bytes.Equal(it.key, iters[winner].key) && i > winner) {
				winner = i
			}
		}
		if winner < 0 {
			break
		}
		key := append([]byte(nil), iters[winner].key...)
		mustDur(w.add(key, iters[winner].val, iters[winner].ver))
		// Advance every iterator sitting on this key (shadowed copies).
		for _, it := range iters {
			for !it.done && bytes.Equal(it.key, key) {
				mustDur(it.next())
			}
		}
	}

	var readBytes int64
	for _, it := range iters {
		readBytes += it.read
	}
	s.stats.DiskReads++
	s.stats.DiskReadBytes += readBytes
	s.burnDisk(int(readBytes), s.cfg.DiskPenaltyPerByte)

	old := d.tables
	name, size, err := w.finish()
	mustDur(err)
	t, err := openSSTable(d.fs, name)
	mustDur(err)
	d.tables = []*ssTable{t}
	d.sizes[name] = size
	d.fileBytes += size
	s.stats.DiskWrites++
	s.stats.DiskWriteBytes += size
	s.stats.CompactionBytes += size
	s.burnDisk(int(size), diskWritePenaltyPerByte)
	// Delete inputs oldest-first (ascending seq): a crash part-way
	// leaves only newer inputs behind, all shadowed by the output.
	for _, t := range old {
		t.close()
		mustDur(d.fs.Remove(t.name))
		d.fileBytes -= d.sizes[t.name]
		delete(d.sizes, t.name)
	}
	s.syncDiskMeter()
}

// ---------------------------------------------------------------------------
// Scan and counting

// durScan merges the memtable over a k-way merge of all tables.
// Callers hold s.mu.
func (s *Store) durScan(start, end []byte) (items []Item) {
	d := s.dur

	var memKeys []string
	for k := range s.mem {
		kb := []byte(k)
		if bytes.Compare(kb, start) >= 0 && (end == nil || bytes.Compare(kb, end) < 0) {
			memKeys = append(memKeys, k)
		}
	}
	sort.Strings(memKeys)

	iters := make([]*tableIter, len(d.tables))
	for i, t := range d.tables {
		iters[i] = newTableIter(t)
		mustDur(iters[i].seek(start))
	}
	defer func() {
		var readBytes int64
		for _, it := range iters {
			readBytes += it.read
		}
		if readBytes > 0 {
			s.stats.DiskReads++
			s.stats.DiskReadBytes += readBytes
			s.burnDisk(int(readBytes), s.cfg.DiskPenaltyPerByte)
		}
	}()

	mi := 0
	for {
		// Smallest table key, newest table winning ties.
		winner := -1
		for i, it := range iters {
			if it.done {
				continue
			}
			if winner < 0 || bytes.Compare(it.key, iters[winner].key) < 0 ||
				(bytes.Equal(it.key, iters[winner].key) && i > winner) {
				winner = i
			}
		}
		if winner < 0 && mi >= len(memKeys) {
			break
		}

		var takeMem bool
		switch {
		case winner < 0:
			takeMem = true
		case mi >= len(memKeys):
			takeMem = false
		default:
			c := bytes.Compare([]byte(memKeys[mi]), iters[winner].key)
			takeMem = c <= 0
		}

		if takeMem {
			k := memKeys[mi]
			mi++
			// Skip shadowed table copies of this key.
			for _, it := range iters {
				for !it.done && bytes.Equal(it.key, []byte(k)) {
					mustDur(it.next())
				}
			}
			e := s.mem[k]
			items = append(items, Item{
				Key:     []byte(k),
				Value:   append([]byte(nil), e.val...),
				Version: e.ver,
			})
			continue
		}

		key := append([]byte(nil), iters[winner].key...)
		if end != nil && bytes.Compare(key, end) >= 0 {
			// All remaining table keys are out of range; drain memtable.
			for _, it := range iters {
				it.done = true
			}
			continue
		}
		items = append(items, Item{
			Key:     key,
			Value:   append([]byte(nil), iters[winner].val...),
			Version: iters[winner].ver,
		})
		for _, it := range iters {
			for !it.done && bytes.Equal(it.key, key) {
				mustDur(it.next())
			}
		}
	}
	return items
}
