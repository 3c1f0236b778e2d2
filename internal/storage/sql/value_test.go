package sql

import (
	"bytes"
	"reflect"
	"testing"

	"cachecost/internal/wire"
)

func encodeForTest(v Value) []byte {
	e := wire.NewEncoder(64)
	EncodeValue(e, 1, v)
	d := wire.NewDecoder(e.Bytes())
	d.Next()
	body, _ := d.Bytes()
	return append([]byte(nil), body...)
}

// TestAliasValueSharesTextAndBlob states the decoder's contract: it reads
// back the value encoded, and its TEXT and BLOB are the input's bytes.
func TestAliasValueSharesTextAndBlob(t *testing.T) {
	for _, v := range []Value{Null(), Int64(-7), Text("key-3"), Text(""), Blob([]byte("payload")), Blob(nil)} {
		buf := encodeForTest(v)
		aliased, err := AliasValue(buf)
		if err != nil {
			t.Fatal(err)
		}
		a, w := aliased, v
		a.Blob, w.Blob = nil, nil // an empty BLOB decodes as empty or as nil
		if !bytes.Equal(aliased.Blob, v.Blob) || !reflect.DeepEqual(a, w) {
			t.Errorf("AliasValue(%v) = %+v", v, aliased)
		}
		for i := range buf {
			buf[i] ^= 0xFF
		}
		if len(v.Blob) > 0 && bytes.Equal(aliased.Blob, v.Blob) {
			t.Errorf("AliasValue(%v) did not alias its input's BLOB", v)
		}
		if len(v.Str) > 0 && aliased.Str == v.Str {
			t.Errorf("AliasValue(%v) did not alias its input's TEXT", v)
		}
	}
}

// FuzzDecodeValue: on every input, decoding the input and decoding a
// private copy of it agree — same error or same value — and changing the
// input afterwards changes only the first result, TEXT and BLOB alike: a
// decoded value aliases exactly the buffer it was decoded from.
func FuzzDecodeValue(f *testing.F) {
	for _, v := range []Value{Null(), Int64(1 << 40), Text("k"), Blob(bytes.Repeat([]byte("b"), 300))} {
		f.Add(encodeForTest(v))
	}
	f.Add([]byte{0x2a, 0x80}) // truncated blob length
	for _, k := range unknownKinds {
		f.Add([]byte{0x08, k}) // {1: k}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		buf := append([]byte(nil), in...)
		aliased, aerr := AliasValue(buf)
		copied, cerr := AliasValue(append([]byte(nil), in...))
		if (aerr == nil) != (cerr == nil) {
			t.Fatalf("errors disagree: %v vs %v", aerr, cerr)
		}
		if aerr != nil {
			return
		}
		if !bytes.Equal(aliased.Blob, copied.Blob) {
			t.Fatalf("blobs disagree: %q vs %q", aliased.Blob, copied.Blob)
		}
		want, wantStr := append([]byte(nil), copied.Blob...), copied.Str
		a, c := aliased, copied
		a.Blob, c.Blob = nil, nil
		if !reflect.DeepEqual(a, c) {
			t.Fatalf("values disagree: %+v vs %+v", aliased, copied)
		}
		for i := range buf {
			buf[i] ^= 0xFF
		}
		if !bytes.Equal(copied.Blob, want) || copied.Str != wantStr {
			t.Fatal("a value decoded from a private copy changed with the input")
		}
		if len(want) > 0 && bytes.Equal(aliased.Blob, want) {
			t.Fatal("AliasValue's blob did not change with its input: it is a copy")
		}
		if len(wantStr) > 0 && aliased.Str == wantStr {
			t.Fatal("AliasValue's text did not change with its input: it is a copy")
		}
	})
}

// unknownKinds are kind tags no Value has: FLOAT's and BOOL's old tags
// and one never assigned.
var unknownKinds = []byte{2, 5, 9}

// TestAliasValueRejectsUnknownKinds: a storage response or stored row
// whose value carries a kind tag other than NULL, INT, TEXT or BLOB's
// fails to decode instead of yielding a value of no kind.
func TestAliasValueRejectsUnknownKinds(t *testing.T) {
	for _, c := range []struct {
		in []byte
		ok bool
	}{
		{[]byte{0x08, 0}, true},
		{[]byte{0x08, 1, 0x10, 0x0e}, true},
		{[]byte{0x08, 3, 0x22, 1, 'k'}, true},
		{[]byte{0x08, 4, 0x2a, 1, 'b'}, true},
		{[]byte{0x08, 2}, false},
		{[]byte{0x08, 2, 0x19, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f}, false}, // an old FLOAT 1.5
		{[]byte{0x08, 5}, false},
		{[]byte{0x08, 5, 0x30, 1}, false}, // an old BOOL true
		{[]byte{0x08, 9}, false},
		{[]byte{0x08, 0x81, 0x02}, false}, // 257: not INT by truncation
	} {
		v, err := AliasValue(c.in)
		if (err == nil) != c.ok {
			t.Errorf("AliasValue(% x) = %+v, %v; want ok=%v", c.in, v, err, c.ok)
		}
	}
}
