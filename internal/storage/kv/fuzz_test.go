package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
	"unsafe"

	"cachecost/internal/wire"
)

// deleteFrame frames a record with op 2, a delete: version and key, no
// value, under a valid checksum. The log is put-only, so its decoder
// rejects such a frame as corrupt.
func deleteFrame(ver Version, key string) []byte {
	payload := wire.AppendUvarint([]byte{2}, ver)
	payload = wire.AppendUvarint(payload, uint64(len(key)))
	payload = append(payload, key...)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// FuzzWALRecord feeds arbitrary bytes to the WAL record decoder. The
// decoder must never panic and must be fail-closed: it either returns a
// record that re-encodes to exactly the bytes it consumed, or an error
// and nothing else. A corrupt frame must never yield a record.
func FuzzWALRecord(f *testing.F) {
	// Valid frames of each shape, and a delete, which must be rejected.
	f.Add(appendWALRecord(nil, WALRecord{Version: 1, Key: []byte("k"), Value: []byte("v")}))
	f.Add(deleteFrame(7, "gone"))
	f.Add(appendWALRecord(nil, WALRecord{Version: 1 << 40, Key: bytes.Repeat([]byte("K"), 300), Value: nil}))
	// Two back-to-back frames (decoder must consume only the first).
	two := appendWALRecord(nil, WALRecord{Version: 2, Key: []byte("a"), Value: []byte("1")})
	f.Add(append(two, deleteFrame(3, "b")...))
	// Adversarial shapes: empty, short, huge length prefix, zeroed frame.
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Add(make([]byte, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := decodeWALRecord(data)
		if err != nil {
			if !errors.Is(err, ErrWALShort) && !errors.Is(err, ErrWALCorrupt) {
				t.Fatalf("unexpected error class: %v", err)
			}
			if n != 0 {
				t.Fatalf("error with nonzero consumed count %d", n)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if data[8] != walOpPut {
			t.Fatalf("accepted record with op %d", data[8])
		}
		// Round-trip: a decoded record re-encodes to the consumed bytes.
		if got := appendWALRecord(nil, rec); !bytes.Equal(got, data[:n]) {
			t.Fatalf("re-encode mismatch: %x vs %x", got, data[:n])
		}
	})
}

// FuzzSSTableFooter feeds arbitrary bytes to the SSTable footer
// decoder: never panic, fail closed on anything but a byte-exact valid
// footer (bad magic, bad checksum, wrong size all rejected).
func FuzzSSTableFooter(f *testing.F) {
	f.Add(encodeSSTableFooter(SSTableFooter{
		IndexOff: 4096, IndexLen: 128, BloomOff: 4224, BloomLen: 64,
		Entries: 100, LiveBytes: 4000, MaxVersion: 99,
	}))
	f.Add(encodeSSTableFooter(SSTableFooter{}))
	f.Add([]byte{})
	f.Add(make([]byte, sstableFooterSize))
	f.Add(bytes.Repeat([]byte{0xff}, sstableFooterSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		ft, err := decodeSSTableFooter(data)
		if err != nil {
			if !errors.Is(err, ErrSSTableCorrupt) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if len(data) != sstableFooterSize {
			t.Fatalf("accepted footer of %d bytes, want %d", len(data), sstableFooterSize)
		}
		if got := encodeSSTableFooter(ft); !bytes.Equal(got, data) {
			t.Fatalf("re-encode mismatch: %x vs %x", got, data)
		}
	})
}

// FuzzEncodedLen checks that a page's arithmetic size is its encoding's
// length, byte for byte: a flush charges and splits on encodedLen before
// it encodes. A page of up to eight entries has key and value lengths
// stepping up from the given ones, across varint boundaries.
func FuzzEncodedLen(f *testing.F) {
	for _, n := range []uint32{0, 1, 127, 128, 16383, 16384} {
		f.Add(n, n, uint64(1), uint8(2))
	}
	for _, ver := range []uint64{0, 1<<7 - 1, 1 << 7, 1<<14 - 1, 1 << 14, 1 << 63, 1<<64 - 1} {
		f.Add(uint32(126), uint32(16382), ver, uint8(4))
	}
	f.Fuzz(func(t *testing.T, keyLen, valLen uint32, ver uint64, entries uint8) {
		keyLen, valLen = keyLen%(1<<17), valLen%(1<<17)
		var dp decodedPage
		for i := 0; i < int(entries%8); i++ {
			dp = append(dp, entry{key: make([]byte, int(keyLen)+i), val: make([]byte, int(valLen)+i), ver: ver + uint64(i)})
		}
		if got, want := encodedLen(dp), len(encodePage(dp)); got != want {
			t.Fatalf("encodedLen = %d, len(encodePage) = %d (key %d, value %d, version %d, %d entries)",
				got, want, keyLen, valLen, ver, len(dp))
		}
	})
}

// FuzzPageRoundTrip checks that decodePage inverts encodePage entry for
// entry, and that it decodes in place: every key and value lies inside the
// encoded buffer, capacity clipped, so the buffer is the decoded page's
// only copy of the bytes and an append to one entry cannot reach the next.
// Each entry takes a key length and a value length byte from data, then
// that many bytes (fewer at the end).
func FuzzPageRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	f.Add([]byte("\x02\x05k1value\x00\x00\x03\x01k22v"), uint64(1))
	f.Add(append([]byte{0x7f, 0x80}, bytes.Repeat([]byte("x"), 255)...), uint64(1<<63))
	f.Add(bytes.Repeat([]byte{0xff}, 1024), uint64(1<<64-1))
	f.Fuzz(func(t *testing.T, data []byte, ver uint64) {
		var dp decodedPage
		for len(data) >= 2 {
			k, v := min(int(data[0]), len(data)-2), int(data[1])
			key, rest := data[2:2+k], data[2+k:]
			v = min(v, len(rest))
			dp = append(dp, entry{key: key, val: rest[:v], ver: ver + uint64(len(dp))})
			data = rest[v:]
		}
		buf := encodePage(dp)
		got := decodePage(buf, len(dp))
		if len(got) != len(dp) {
			t.Fatalf("decoded %d entries, encoded %d", len(got), len(dp))
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
		inside := func(b []byte) bool {
			at := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
			return len(b) == 0 || at >= lo && at+uintptr(len(b)) <= lo+uintptr(len(buf))
		}
		for i, en := range got {
			if want := dp[i]; !bytes.Equal(en.key, want.key) || !bytes.Equal(en.val, want.val) || en.ver != want.ver {
				t.Fatalf("entry %d = %q:%q@%d, want %q:%q@%d", i, en.key, en.val, en.ver, want.key, want.val, want.ver)
			}
			if cap(en.key) != len(en.key) || cap(en.val) != len(en.val) {
				t.Fatalf("entry %d: capacity not clipped (key %d/%d, value %d/%d)",
					i, len(en.key), cap(en.key), len(en.val), cap(en.val))
			}
			if !inside(en.key) || !inside(en.val) {
				t.Fatalf("entry %d does not alias the encoded page", i)
			}
		}
	})
}

// TestWALDecodeRejectsBitFlips flips every byte of a valid frame and
// asserts the decoder never returns that frame as valid with altered
// content (a flip in the length prefix may still decode if it resolves
// to another valid frame boundary — impossible here since the buffer
// holds exactly one frame).
func TestWALDecodeRejectsBitFlips(t *testing.T) {
	orig := appendWALRecord(nil, WALRecord{Version: 42, Key: []byte("key"), Value: []byte("value")})
	for i := range orig {
		mut := append([]byte(nil), orig...)
		mut[i] ^= 0x01
		rec, _, err := decodeWALRecord(mut)
		if err == nil {
			t.Fatalf("byte %d: flip accepted: %+v", i, rec)
		}
	}
}

// TestSSTableFooterRejectsBitFlips does the same for the footer.
func TestSSTableFooterRejectsBitFlips(t *testing.T) {
	orig := encodeSSTableFooter(SSTableFooter{
		IndexOff: 1, IndexLen: 2, BloomOff: 3, BloomLen: 4, Entries: 5, LiveBytes: 6, MaxVersion: 7,
	})
	for i := range orig {
		mut := append([]byte(nil), orig...)
		mut[i] ^= 0x01
		if ft, err := decodeSSTableFooter(mut); err == nil {
			t.Fatalf("byte %d: flip accepted: %+v", i, ft)
		}
	}
}

// TestWALRejectsDeleteRecord: a frame with op 2 is corrupt however sound
// its checksum, and recovery stops at it, as at any corrupt frame: the
// put before it is replayed, the put after it is not.
func TestWALRejectsDeleteRecord(t *testing.T) {
	if _, _, err := decodeWALRecord(deleteFrame(7, "gone")); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("delete frame: err = %v, want ErrWALCorrupt", err)
	}
	seg := appendWALRecord(nil, WALRecord{Version: 1, Key: []byte("before"), Value: []byte("v")})
	seg = append(seg, deleteFrame(2, "before")...)
	seg = appendWALRecord(seg, WALRecord{Version: 3, Key: []byte("after"), Value: []byte("v")})
	fs := NewMemFS()
	f, _ := fs.Create(walName(1))
	f.Write(seg)
	f.Sync()
	s := durableStore(t, fs, Config{})
	defer s.Close()
	if v, ver, ok := s.Get([]byte("before")); !ok || string(v) != "v" || ver != 1 {
		t.Fatalf("Get(before) = %q v%d %v, want the put ahead of the delete frame", v, ver, ok)
	}
	if _, _, ok := s.Get([]byte("after")); ok {
		t.Fatal("a record past the delete frame was replayed")
	}
}

// TestSSTableRejectsTombstoneEntry: an entry with flag bit 0 set, a
// tombstone, is corrupt: as decoded, in the old value-less form and with
// a value, and as a point read meets it in a table whose block checksum
// holds.
func TestSSTableRejectsTombstoneEntry(t *testing.T) {
	for _, entry := range [][]byte{
		{1, 7, 4, 'g', 'o', 'n', 'e'},         // flags, version, klen, key
		{1, 7, 4, 'g', 'o', 'n', 'e', 1, 'v'}, // ... vlen, value
	} {
		if _, _, _, _, err := decodeEntry(entry); !errors.Is(err, ErrSSTableCorrupt) {
			t.Fatalf("decodeEntry(%x): err = %v, want ErrSSTableCorrupt", entry, err)
		}
	}
	fs := NewMemFS()
	w, err := newSSTWriter(fs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.add([]byte("k"), []byte("v"), 1); err != nil {
		t.Fatal(err)
	}
	name, _, err := w.finish()
	if err != nil {
		t.Fatal(err)
	}
	// The table's one block opens the file: one six-byte entry (flags,
	// version, klen, "k", vlen, "v") and its crc32.
	data := fs.files[name].data
	data[0] |= 1
	binary.LittleEndian.PutUint32(data[6:], crc32.ChecksumIEEE(data[:6]))
	tbl, err := openSSTable(fs, name)
	if err != nil {
		t.Fatalf("openSSTable: %v", err)
	}
	defer tbl.close()
	if _, _, _, _, err := tbl.get([]byte("k")); !errors.Is(err, ErrSSTableCorrupt) {
		t.Fatalf("get over a tombstone entry: err = %v, want ErrSSTableCorrupt", err)
	}
}
