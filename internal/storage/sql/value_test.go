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
	for _, v := range []Value{Null(), Int64(-7), Float64(2.5), Text("key-3"), Text(""), Bool(true), Blob([]byte("payload")), Blob(nil)} {
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
	for _, v := range []Value{Null(), Int64(1 << 40), Float64(-0.5), Text("k"), Bool(false), Blob(bytes.Repeat([]byte("b"), 300))} {
		f.Add(encodeForTest(v))
	}
	f.Add([]byte{0x2a, 0x80}) // truncated blob length
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
		if !reflect.DeepEqual(a, c) && !(a.Float != a.Float && c.Float != c.Float) { // NaN != NaN
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
