package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"cachecost/internal/wire"
)

// WAL wire format. Each record is one CRC-framed put:
//
//	frame   := length(u32 LE) crc32(u32 LE) payload
//	payload := op(byte) version(uvarint) klen(uvarint) key vlen(uvarint) value
//
// length counts payload bytes only; crc32 (IEEE) covers the payload.
// op is always 1 (put): the engine is put-only, so any other op (2 once
// marked a delete) is rejected as corrupt.
// Records append sequentially; Sync is the acknowledgement barrier.
// Recovery decodes records until the first frame that is short or fails
// its checksum — that frame and everything after it were never covered
// by a successful fsync, so dropping them loses no acknowledged write —
// and it never applies a record whose checksum does not match (a torn
// record is rejected, not misread).

// walOpPut is the op byte of every record.
const walOpPut = 1

// maxWALRecordBytes bounds a single record so a corrupt length prefix
// cannot drive a multi-gigabyte allocation during recovery.
const maxWALRecordBytes = 1 << 28 // 256 MiB

// WALRecord is one decoded write-ahead-log record: a put.
type WALRecord struct {
	Version Version
	Key     []byte
	Value   []byte
}

// Errors returned by decodeWALRecord. ErrWALShort marks a frame cut off
// mid-write (a torn tail); ErrWALCorrupt marks a frame whose bytes are
// present but wrong. Recovery treats both the same way — stop, serve
// nothing from the bad frame onward — but tests distinguish them.
var (
	ErrWALShort   = errors.New("kv: wal record truncated")
	ErrWALCorrupt = errors.New("kv: wal record corrupt")
)

// appendWALRecord appends the framed encoding of r to dst.
func appendWALRecord(dst []byte, r WALRecord) []byte {
	payloadLen := 1 + wire.UvarintLen(uint64(r.Version)) + wire.UvarintLen(uint64(len(r.Key))) + len(r.Key) +
		wire.UvarintLen(uint64(len(r.Value))) + len(r.Value)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payloadLen))
	crcAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // crc placeholder
	payloadAt := len(dst)
	dst = append(dst, walOpPut)
	dst = wire.AppendUvarint(dst, uint64(r.Version))
	dst = wire.AppendUvarint(dst, uint64(len(r.Key)))
	dst = append(dst, r.Key...)
	dst = wire.AppendUvarint(dst, uint64(len(r.Value)))
	dst = append(dst, r.Value...)
	binary.LittleEndian.PutUint32(dst[crcAt:], crc32.ChecksumIEEE(dst[payloadAt:]))
	return dst
}

// decodeWALRecord decodes the first framed record in buf, returning the
// record and the number of bytes consumed. It is fail-closed: any frame
// that is truncated, oversized, fails its checksum, or carries a
// malformed payload is rejected with an error — never partially
// returned. The returned record aliases buf.
func decodeWALRecord(buf []byte) (WALRecord, int, error) {
	var r WALRecord
	if len(buf) < 8 {
		return r, 0, ErrWALShort
	}
	payloadLen := int(binary.LittleEndian.Uint32(buf))
	if payloadLen < 2 { // op byte + at least a version byte
		return r, 0, fmt.Errorf("%w: implausible length %d", ErrWALCorrupt, payloadLen)
	}
	if payloadLen > maxWALRecordBytes {
		return r, 0, fmt.Errorf("%w: length %d exceeds limit", ErrWALCorrupt, payloadLen)
	}
	if len(buf) < 8+payloadLen {
		return r, 0, ErrWALShort
	}
	wantCRC := binary.LittleEndian.Uint32(buf[4:])
	payload := buf[8 : 8+payloadLen]
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return r, 0, fmt.Errorf("%w: checksum mismatch", ErrWALCorrupt)
	}
	if op := payload[0]; op != walOpPut {
		return r, 0, fmt.Errorf("%w: unknown op %d", ErrWALCorrupt, op)
	}
	p := payload[1:]
	ver, n, verr := wire.Uvarint(p)
	if verr != nil {
		return r, 0, fmt.Errorf("%w: bad version varint", ErrWALCorrupt)
	}
	p = p[n:]
	klen, n, verr := wire.Uvarint(p)
	if verr != nil || uint64(len(p)-n) < klen {
		return r, 0, fmt.Errorf("%w: bad key length", ErrWALCorrupt)
	}
	p = p[n:]
	r.Version = Version(ver)
	r.Key = p[:klen]
	p = p[klen:]
	vlen, n, verr := wire.Uvarint(p)
	if verr != nil || uint64(len(p)-n) != vlen {
		return r, 0, fmt.Errorf("%w: bad value length", ErrWALCorrupt)
	}
	r.Value = p[n:]
	return r, 8 + payloadLen, nil
}

// walWriter appends framed records to one segment file with group
// commit: Sync fsyncs once for every batch of appends, so the fsync
// count scales with batches, not records.
type walWriter struct {
	f       File
	name    string
	buf     []byte // scratch for framing
	bytes   int64  // total bytes appended to this segment
	pending int    // appends since the last fsync
}

func newWALWriter(f File, name string) *walWriter {
	return &walWriter{f: f, name: name}
}

// append frames and writes r. The record is durable only after sync.
func (w *walWriter) append(r WALRecord) (int, error) {
	w.buf = appendWALRecord(w.buf[:0], r)
	n, err := w.f.Write(w.buf)
	if err != nil {
		return n, fmt.Errorf("kv: wal append: %w", err)
	}
	w.bytes += int64(n)
	w.pending++
	return n, nil
}

// sync makes all appended records durable, reporting whether an fsync
// was actually issued (no-op when nothing is pending).
func (w *walWriter) sync() (bool, error) {
	if w.pending == 0 {
		return false, nil
	}
	if err := w.f.Sync(); err != nil {
		return false, fmt.Errorf("kv: wal fsync: %w", err)
	}
	w.pending = 0
	return true, nil
}

func (w *walWriter) close() error {
	return w.f.Close()
}

// replayWAL reads every decodable record from a segment, calling fn for
// each. It stops cleanly at the first truncated or corrupt frame
// (returning how many bytes were good); the caller treats the remainder
// as the torn, never-acknowledged tail.
func replayWAL(f File, size int64, fn func(WALRecord)) (good int64, err error) {
	if size == 0 {
		return 0, nil
	}
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
		return 0, fmt.Errorf("kv: wal read: %w", err)
	}
	off := 0
	for off < len(data) {
		rec, n, err := decodeWALRecord(data[off:])
		if err != nil {
			// Torn or corrupt frame: nothing at or past this offset was
			// covered by an acknowledged fsync. Stop here, fail closed.
			return int64(off), nil
		}
		// Copy out: rec aliases data, which outlives this loop only here.
		rec.Key = append([]byte(nil), rec.Key...)
		rec.Value = append([]byte(nil), rec.Value...)
		fn(rec)
		off += n
	}
	return int64(off), nil
}
