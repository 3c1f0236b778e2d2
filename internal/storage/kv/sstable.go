package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"
	"strings"

	"cachecost/internal/wire"
)

// SSTable layout. A table is written once (memtable flush or compaction
// output), read many times, and never modified:
//
//	table  := block* index bloom footer
//	block  := entry* crc32(u32 LE)            — entries sorted, ≤ sstBlockBytes
//	entry  := flags(byte) version(uvarint) klen(uvarint) key
//	          vlen(uvarint) value
//	index  := count(uvarint)
//	          (klen(uvarint) firstKey off(uvarint) len(uvarint))*
//	          crc32(u32 LE)
//	bloom  := k(byte) bitlen(uvarint) bits crc32(u32 LE)
//	footer := indexOff indexLen bloomOff bloomLen entries liveBytes
//	          maxVersion (each u64 LE) crc32(u32 LE) magic("CCSSTB01")
//
// flags is always 0: the engine is put-only, so an entry with any flag
// set (bit 0 once marked a tombstone) is rejected as corrupt. The sparse
// index holds one entry per
// block (first key + extent); readers binary-search it and touch exactly
// one block per point read. Every section carries its own CRC32 (IEEE)
// and the footer ends in a magic string, so a truncated, torn or
// bit-flipped table is rejected at open — fail closed — rather than
// misread.
//
// Tables are created as "<name>.tmp", fully written, fsynced, then
// renamed to "<seq>.sst". Recovery deletes any *.tmp it finds: a table
// either exists completely or not at all.

// sstableMagic terminates every table file.
const sstableMagic = "CCSSTB01"

// sstableFooterSize is the fixed byte length of the footer.
const sstableFooterSize = 7*8 + 4 + 8

// SSTableFooter locates the index and bloom sections and carries the
// table's summary statistics.
type SSTableFooter struct {
	IndexOff   uint64
	IndexLen   uint64
	BloomOff   uint64
	BloomLen   uint64
	Entries    uint64
	LiveBytes  uint64 // Σ len(key)+len(value) over entries
	MaxVersion uint64
}

// ErrSSTableCorrupt is returned when any table section fails validation.
var ErrSSTableCorrupt = errors.New("kv: sstable corrupt")

// encodeSSTableFooter returns the fixed-size footer encoding.
func encodeSSTableFooter(f SSTableFooter) []byte {
	b := make([]byte, 0, sstableFooterSize)
	for _, v := range [7]uint64{f.IndexOff, f.IndexLen, f.BloomOff, f.BloomLen, f.Entries, f.LiveBytes, f.MaxVersion} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	return append(b, sstableMagic...)
}

// decodeSSTableFooter validates and decodes a footer. It is fail-closed:
// wrong size, wrong magic or wrong checksum all reject.
func decodeSSTableFooter(b []byte) (SSTableFooter, error) {
	var f SSTableFooter
	if len(b) != sstableFooterSize {
		return f, fmt.Errorf("%w: footer is %d bytes, want %d", ErrSSTableCorrupt, len(b), sstableFooterSize)
	}
	if string(b[len(b)-8:]) != sstableMagic {
		return f, fmt.Errorf("%w: bad magic", ErrSSTableCorrupt)
	}
	fields := b[:7*8]
	if crc32.ChecksumIEEE(fields) != binary.LittleEndian.Uint32(b[7*8:]) {
		return f, fmt.Errorf("%w: footer checksum mismatch", ErrSSTableCorrupt)
	}
	f.IndexOff = binary.LittleEndian.Uint64(fields[0:])
	f.IndexLen = binary.LittleEndian.Uint64(fields[8:])
	f.BloomOff = binary.LittleEndian.Uint64(fields[16:])
	f.BloomLen = binary.LittleEndian.Uint64(fields[24:])
	f.Entries = binary.LittleEndian.Uint64(fields[32:])
	f.LiveBytes = binary.LittleEndian.Uint64(fields[40:])
	f.MaxVersion = binary.LittleEndian.Uint64(fields[48:])
	return f, nil
}

// blockRef is one sparse-index entry.
type blockRef struct {
	firstKey []byte
	off      uint64
	length   uint64 // includes the block's trailing crc32
}

// ---------------------------------------------------------------------------
// Writer

// A table's data blocks close at sstBlockBytes, and its bloom filter
// spends sstBloomBitsPerKey bits on each key (≈0.8% false positives).
const (
	sstBlockBytes      = 4 << 10
	sstBloomBitsPerKey = 10
)

// sstWriter streams sorted entries into a new table file.
type sstWriter struct {
	fs        FS
	tmpName   string
	finalName string
	f         File

	block    []byte // current block's entry bytes
	firstKey []byte // first key of the current block
	index    []blockRef
	hashes   []uint64
	off      uint64 // bytes written to the file so far
	lastKey  []byte

	entries    uint64
	liveBytes  uint64
	maxVersion uint64
}

func newSSTWriter(fs FS, seq uint64) (*sstWriter, error) {
	final := sstName(seq)
	tmp := final + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return nil, fmt.Errorf("kv: create sstable: %w", err)
	}
	return &sstWriter{fs: fs, tmpName: tmp, finalName: final, f: f}, nil
}

// add appends one entry. Keys must arrive in strictly ascending order.
func (w *sstWriter) add(key, val []byte, ver Version) error {
	if w.lastKey != nil && bytes.Compare(key, w.lastKey) <= 0 {
		return fmt.Errorf("kv: sstable keys out of order: %q after %q", key, w.lastKey)
	}
	w.lastKey = append(w.lastKey[:0], key...)
	if w.firstKey == nil {
		w.firstKey = append([]byte(nil), key...)
	}
	w.block = append(w.block, 0) // flags
	w.block = wire.AppendUvarint(w.block, uint64(ver))
	w.block = wire.AppendUvarint(w.block, uint64(len(key)))
	w.block = append(w.block, key...)
	w.block = wire.AppendUvarint(w.block, uint64(len(val)))
	w.block = append(w.block, val...)
	w.liveBytes += uint64(len(key) + len(val))
	w.entries++
	if uint64(ver) > w.maxVersion {
		w.maxVersion = uint64(ver)
	}
	w.hashes = append(w.hashes, bloomHash(key))
	if len(w.block) >= sstBlockBytes {
		return w.flushBlock()
	}
	return nil
}

func (w *sstWriter) flushBlock() error {
	if len(w.block) == 0 {
		return nil
	}
	w.block = binary.LittleEndian.AppendUint32(w.block, crc32.ChecksumIEEE(w.block))
	n, err := w.f.Write(w.block)
	if err != nil {
		return fmt.Errorf("kv: sstable write: %w", err)
	}
	w.index = append(w.index, blockRef{firstKey: w.firstKey, off: w.off, length: uint64(len(w.block))})
	w.off += uint64(n)
	w.block = w.block[:0]
	w.firstKey = nil
	return nil
}

// finish writes index, bloom and footer, fsyncs, and atomically renames
// the table into place. Returns the final name and file size.
func (w *sstWriter) finish() (string, int64, error) {
	if err := w.flushBlock(); err != nil {
		return "", 0, err
	}
	// Index section.
	idx := wire.AppendUvarint(nil, uint64(len(w.index)))
	for _, ref := range w.index {
		idx = wire.AppendUvarint(idx, uint64(len(ref.firstKey)))
		idx = append(idx, ref.firstKey...)
		idx = wire.AppendUvarint(idx, ref.off)
		idx = wire.AppendUvarint(idx, ref.length)
	}
	idx = binary.LittleEndian.AppendUint32(idx, crc32.ChecksumIEEE(idx))
	indexOff := w.off
	if _, err := w.f.Write(idx); err != nil {
		return "", 0, fmt.Errorf("kv: sstable index write: %w", err)
	}
	w.off += uint64(len(idx))

	// Bloom section.
	filter := newBloomFilter(len(w.hashes), sstBloomBitsPerKey)
	for _, h := range w.hashes {
		filter.add(h)
	}
	bl := []byte{filter.k}
	bl = wire.AppendUvarint(bl, uint64(len(filter.bits)))
	bl = append(bl, filter.bits...)
	bl = binary.LittleEndian.AppendUint32(bl, crc32.ChecksumIEEE(bl))
	bloomOff := w.off
	if _, err := w.f.Write(bl); err != nil {
		return "", 0, fmt.Errorf("kv: sstable bloom write: %w", err)
	}
	w.off += uint64(len(bl))

	footer := encodeSSTableFooter(SSTableFooter{
		IndexOff: indexOff, IndexLen: uint64(len(idx)),
		BloomOff: bloomOff, BloomLen: uint64(len(bl)),
		Entries: w.entries, LiveBytes: w.liveBytes, MaxVersion: w.maxVersion,
	})
	if _, err := w.f.Write(footer); err != nil {
		return "", 0, fmt.Errorf("kv: sstable footer write: %w", err)
	}
	w.off += uint64(len(footer))

	if err := w.f.Sync(); err != nil {
		return "", 0, fmt.Errorf("kv: sstable fsync: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return "", 0, fmt.Errorf("kv: sstable close: %w", err)
	}
	if err := w.fs.Rename(w.tmpName, w.finalName); err != nil {
		return "", 0, fmt.Errorf("kv: sstable rename: %w", err)
	}
	return w.finalName, int64(w.off), nil
}

// ---------------------------------------------------------------------------
// Reader

// ssTable is an open, validated table. The sparse index and bloom filter
// stay resident (their footprint counts toward the DRAM tier gauge);
// data blocks are read from the file on demand.
type ssTable struct {
	fs   FS
	name string
	seq  uint64
	f    File
	size int64

	refs  []blockRef
	bloom bloomFilter

	entries    uint64
	liveBytes  uint64
	maxVersion uint64
	overhead   int64 // resident bytes: index + bloom
}

func sstName(seq uint64) string { return fmt.Sprintf("%06d.sst", seq) }

// sstSeq parses the sequence number out of a table name, reporting
// whether name is a table at all.
func sstSeq(name string) (uint64, bool) {
	if !strings.HasSuffix(name, ".sst") || len(name) < 5 {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(name, ".sst"), 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// openSSTable opens and validates a table. Any inconsistency — footer,
// index or bloom checksum, out-of-range offsets — is a hard error: a
// damaged table must never serve reads.
func openSSTable(fs FS, name string) (*ssTable, error) {
	seq, ok := sstSeq(name)
	if !ok {
		return nil, fmt.Errorf("kv: not an sstable name: %q", name)
	}
	f, err := fs.Open(name)
	if err != nil {
		return nil, fmt.Errorf("kv: open sstable %s: %w", name, err)
	}
	size, err := fs.Size(name)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("kv: stat sstable %s: %w", name, err)
	}
	t := &ssTable{fs: fs, name: name, seq: seq, f: f, size: size}
	if err := t.load(); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return t, nil
}

func (t *ssTable) load() error {
	if t.size < sstableFooterSize {
		return fmt.Errorf("%w: file shorter than footer", ErrSSTableCorrupt)
	}
	fb := make([]byte, sstableFooterSize)
	if _, err := t.f.ReadAt(fb, t.size-sstableFooterSize); err != nil {
		return fmt.Errorf("kv: read footer: %w", err)
	}
	footer, err := decodeSSTableFooter(fb)
	if err != nil {
		return err
	}
	body := uint64(t.size - sstableFooterSize)
	if footer.IndexOff+footer.IndexLen > body || footer.BloomOff+footer.BloomLen > body ||
		footer.IndexOff+footer.IndexLen > footer.BloomOff || footer.IndexLen < 5 || footer.BloomLen < 6 {
		return fmt.Errorf("%w: footer offsets out of range", ErrSSTableCorrupt)
	}
	t.entries = footer.Entries
	t.liveBytes = footer.LiveBytes
	t.maxVersion = footer.MaxVersion

	// Index.
	idx := make([]byte, footer.IndexLen)
	if _, err := t.f.ReadAt(idx, int64(footer.IndexOff)); err != nil {
		return fmt.Errorf("kv: read index: %w", err)
	}
	payload := idx[:len(idx)-4]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(idx[len(idx)-4:]) {
		return fmt.Errorf("%w: index checksum mismatch", ErrSSTableCorrupt)
	}
	count, n, err := wire.Uvarint(payload)
	if err != nil {
		return fmt.Errorf("%w: index count", ErrSSTableCorrupt)
	}
	if count > uint64(len(payload)) { // each ref is ≥ 3 bytes
		return fmt.Errorf("%w: implausible index count %d", ErrSSTableCorrupt, count)
	}
	payload = payload[n:]
	refs := make([]blockRef, 0, count)
	for i := uint64(0); i < count; i++ {
		klen, n, err := wire.Uvarint(payload)
		if err != nil || uint64(len(payload)-n) < klen {
			return fmt.Errorf("%w: index key", ErrSSTableCorrupt)
		}
		payload = payload[n:]
		key := append([]byte(nil), payload[:klen]...)
		payload = payload[klen:]
		off, n, err := wire.Uvarint(payload)
		if err != nil {
			return fmt.Errorf("%w: index offset", ErrSSTableCorrupt)
		}
		payload = payload[n:]
		length, n, err := wire.Uvarint(payload)
		if err != nil {
			return fmt.Errorf("%w: index length", ErrSSTableCorrupt)
		}
		payload = payload[n:]
		if off+length > footer.IndexOff || length < 5 {
			return fmt.Errorf("%w: block extent out of range", ErrSSTableCorrupt)
		}
		refs = append(refs, blockRef{firstKey: key, off: off, length: length})
		t.overhead += int64(klen) + 24
	}
	if len(payload) != 0 {
		return fmt.Errorf("%w: trailing index bytes", ErrSSTableCorrupt)
	}
	t.refs = refs

	// Bloom.
	bl := make([]byte, footer.BloomLen)
	if _, err := t.f.ReadAt(bl, int64(footer.BloomOff)); err != nil {
		return fmt.Errorf("kv: read bloom: %w", err)
	}
	payload = bl[:len(bl)-4]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(bl[len(bl)-4:]) {
		return fmt.Errorf("%w: bloom checksum mismatch", ErrSSTableCorrupt)
	}
	k := payload[0]
	bits, n, err := wire.Uvarint(payload[1:])
	if err != nil || uint64(len(payload)-1-n) != bits || k == 0 || k > 30 {
		return fmt.Errorf("%w: bloom header", ErrSSTableCorrupt)
	}
	t.bloom = bloomFilter{bits: append([]byte(nil), payload[1+n:]...), k: k}
	t.overhead += int64(len(t.bloom.bits))
	return nil
}

func (t *ssTable) close() { t.f.Close() }

// readBlock fetches and validates one block, returning its entry bytes.
func (t *ssTable) readBlock(ref blockRef) ([]byte, error) {
	b := make([]byte, ref.length)
	if _, err := t.f.ReadAt(b, int64(ref.off)); err != nil {
		return nil, fmt.Errorf("kv: read block: %w", err)
	}
	payload := b[:len(b)-4]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[len(b)-4:]) {
		return nil, fmt.Errorf("%w: block checksum mismatch", ErrSSTableCorrupt)
	}
	return payload, nil
}

// decodeEntry decodes one entry, returning bytes consumed. An entry with
// any flag set — a tombstone among them — is corrupt.
func decodeEntry(b []byte) (key, val []byte, ver Version, n int, err error) {
	if len(b) < 3 {
		return nil, nil, 0, 0, fmt.Errorf("%w: short entry", ErrSSTableCorrupt)
	}
	if flags := b[0]; flags != 0 {
		return nil, nil, 0, 0, fmt.Errorf("%w: unknown entry flags %#x", ErrSSTableCorrupt, flags)
	}
	p := b[1:]
	v, vn, verr := wire.Uvarint(p)
	if verr != nil {
		return nil, nil, 0, 0, fmt.Errorf("%w: entry version", ErrSSTableCorrupt)
	}
	p = p[vn:]
	klen, kn, verr := wire.Uvarint(p)
	if verr != nil || uint64(len(p)-kn) < klen {
		return nil, nil, 0, 0, fmt.Errorf("%w: entry key", ErrSSTableCorrupt)
	}
	p = p[kn:]
	key = p[:klen]
	p = p[klen:]
	vlen, vln, verr := wire.Uvarint(p)
	if verr != nil || uint64(len(p)-vln) < vlen {
		return nil, nil, 0, 0, fmt.Errorf("%w: entry value", ErrSSTableCorrupt)
	}
	val = p[vln : vln+int(vlen)]
	return key, val, Version(v), 1 + vn + kn + int(klen) + vln + int(vlen), nil
}

// get looks key up in the table. bytesRead reports how many file bytes
// were touched (zero when the bloom filter excluded the key); the caller
// charges the disk penalty from it. found=false with err=nil means the
// table does not contain the key.
func (t *ssTable) get(key []byte) (val []byte, ver Version, found bool, bytesRead int, err error) {
	if !t.bloom.maybeContains(bloomHash(key)) {
		return nil, 0, false, 0, nil
	}
	// Last block whose firstKey <= key.
	i := sort.Search(len(t.refs), func(i int) bool {
		return bytes.Compare(t.refs[i].firstKey, key) > 0
	})
	if i == 0 {
		return nil, 0, false, 0, nil
	}
	ref := t.refs[i-1]
	block, err := t.readBlock(ref)
	if err != nil {
		return nil, 0, false, int(ref.length), err
	}
	for len(block) > 0 {
		k, v, entryVer, n, err := decodeEntry(block)
		if err != nil {
			return nil, 0, false, int(ref.length), err
		}
		switch bytes.Compare(k, key) {
		case 0:
			return v, entryVer, true, int(ref.length), nil
		case 1:
			return nil, 0, false, int(ref.length), nil // past it; absent
		}
		block = block[n:]
	}
	return nil, 0, false, int(ref.length), nil
}
