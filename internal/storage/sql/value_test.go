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

// TestAliasValueSharesTextAndBlob states the two decoders' contract:
// they read the same value, AliasValue's TEXT and BLOB are the input's
// bytes, and DecodeValue's are its own.
func TestAliasValueSharesTextAndBlob(t *testing.T) {
	for _, v := range []Value{Null(), Int64(-7), Float64(2.5), Text("key-3"), Text(""), Bool(true), Blob([]byte("payload")), Blob(nil)} {
		buf := encodeForTest(v)
		aliased, err := AliasValue(buf)
		if err != nil {
			t.Fatal(err)
		}
		copied, err := DecodeValue(buf)
		if err != nil {
			t.Fatal(err)
		}
		a := aliased
		a.Blob = copied.Blob // an empty BLOB decodes as empty or as nil
		if !bytes.Equal(aliased.Blob, copied.Blob) || !reflect.DeepEqual(a, copied) {
			t.Errorf("decoders disagree: %+v vs %+v", aliased, copied)
		}
		for i := range buf {
			buf[i] ^= 0xFF
		}
		if copied.Kind != v.Kind || copied.Compare(v) != 0 || copied.Str != v.Str {
			t.Errorf("DecodeValue(%v) = %v after its input changed", v, copied)
		}
		if len(v.Blob) > 0 && bytes.Equal(aliased.Blob, v.Blob) {
			t.Errorf("AliasValue(%v) did not alias its input's BLOB", v)
		}
		if len(v.Str) > 0 && aliased.Str == v.Str {
			t.Errorf("AliasValue(%v) did not alias its input's TEXT", v)
		}
	}
}

// FuzzDecodeValue: on every input the aliasing and the copying decoder
// agree — same error or same value — and changing the input afterwards
// changes only the aliasing result, TEXT and BLOB alike.
func FuzzDecodeValue(f *testing.F) {
	for _, v := range []Value{Null(), Int64(1 << 40), Float64(-0.5), Text("k"), Bool(false), Blob(bytes.Repeat([]byte("b"), 300))} {
		f.Add(encodeForTest(v))
	}
	f.Add([]byte{0x2a, 0x80}) // truncated blob length
	f.Fuzz(func(t *testing.T, in []byte) {
		buf := append([]byte(nil), in...)
		aliased, aerr := AliasValue(buf)
		copied, cerr := DecodeValue(buf)
		if (aerr == nil) != (cerr == nil) {
			t.Fatalf("errors disagree: alias %v, copy %v", aerr, cerr)
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
			t.Fatal("DecodeValue's blob or text changed with its input")
		}
		if len(want) > 0 && bytes.Equal(aliased.Blob, want) {
			t.Fatal("AliasValue's blob did not change with its input: it is a copy")
		}
		if len(wantStr) > 0 && aliased.Str == wantStr {
			t.Fatal("AliasValue's text did not change with its input: it is a copy")
		}
	})
}
