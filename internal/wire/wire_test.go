package wire

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestUvarintRoundtrip(t *testing.T) {
	cases := []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<63 - 1, math.MaxUint64}
	for _, v := range cases {
		b := AppendUvarint(nil, v)
		if got := UvarintLen(v); got != len(b) {
			t.Errorf("UvarintLen(%d) = %d, encoded %d bytes", v, got, len(b))
		}
		dec, n, err := Uvarint(b)
		if err != nil || n != len(b) || dec != v {
			t.Errorf("Uvarint(%d): dec=%d n=%d err=%v", v, dec, n, err)
		}
	}
}

func TestUvarintProperty(t *testing.T) {
	f := func(v uint64) bool {
		b := AppendUvarint(nil, v)
		dec, n, err := Uvarint(b)
		return err == nil && n == len(b) && dec == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUvarintTruncated(t *testing.T) {
	b := AppendUvarint(nil, math.MaxUint64)
	for i := 0; i < len(b); i++ {
		if _, _, err := Uvarint(b[:i]); err == nil {
			t.Fatalf("Uvarint should fail on %d-byte prefix", i)
		}
	}
}

func TestUvarintOverflow(t *testing.T) {
	// 11 continuation bytes: too long for 64 bits.
	b := bytes.Repeat([]byte{0xff}, 11)
	if _, _, err := Uvarint(b); err != errOverflow {
		t.Fatalf("want errOverflow, got %v", err)
	}
	// 10 bytes but top bits set beyond 64.
	b = append(bytes.Repeat([]byte{0xff}, 9), 0x7f)
	if _, _, err := Uvarint(b); err != errOverflow {
		t.Fatalf("want errOverflow for 10-byte overflow, got %v", err)
	}
}

func TestZigzagProperty(t *testing.T) {
	f := func(v int64) bool { return Unzigzag(Zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Small magnitudes should encode small.
	for _, v := range []int64{-1, 1, -2, 2} {
		if Zigzag(v) > 4 {
			t.Fatalf("Zigzag(%d) = %d, want <= 4", v, Zigzag(v))
		}
	}
}

func TestEncoderDecoderAllTypes(t *testing.T) {
	e := NewEncoder(64)
	e.Uint64(1, 42)
	e.Int64(2, -7)
	e.Bool(3, true)
	e.Bool(4, false)
	e.BytesField(6, []byte{0xde, 0xad})
	e.String(7, "hello")

	d := NewDecoder(e.Bytes())
	expect := func(wantField uint32, wantType Type) {
		t.Helper()
		f, typ, err := d.Next()
		if err != nil || f != wantField || typ != wantType {
			t.Fatalf("Next() = (%d,%d,%v), want (%d,%d)", f, typ, err, wantField, wantType)
		}
	}
	expect(1, tVarint)
	if v, _ := d.Uint64(); v != 42 {
		t.Fatal("uint64 mismatch")
	}
	expect(2, tVarint)
	if v, _ := d.Int64(); v != -7 {
		t.Fatal("int64 mismatch")
	}
	expect(3, tVarint)
	if v, _ := d.Bool(); !v {
		t.Fatal("bool true mismatch")
	}
	expect(4, tVarint)
	if v, _ := d.Bool(); v {
		t.Fatal("bool false mismatch")
	}
	expect(6, TBytes)
	if v, _ := d.Bytes(); !bytes.Equal(v, []byte{0xde, 0xad}) {
		t.Fatal("bytes mismatch")
	}
	expect(7, TBytes)
	if v, _ := d.String(); v != "hello" {
		t.Fatal("string mismatch")
	}
	if !d.Done() {
		t.Fatal("decoder should be exhausted")
	}
}

func TestNestedMessageSmall(t *testing.T) {
	e := NewEncoder(0)
	e.Message(1, func(sub *Encoder) {
		sub.Uint64(1, 9)
		sub.String(2, "in")
	})
	e.Uint64(2, 77)

	d := NewDecoder(e.Bytes())
	f, typ, err := d.Next()
	if err != nil || f != 1 || typ != TBytes {
		t.Fatalf("outer Next: %d %d %v", f, typ, err)
	}
	inner, err := d.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	id := NewDecoder(inner)
	if f, _, _ := id.Next(); f != 1 {
		t.Fatal("inner field 1 missing")
	}
	if v, _ := id.Uint64(); v != 9 {
		t.Fatal("inner uint mismatch")
	}
	if f, _, _ := id.Next(); f != 2 {
		t.Fatal("inner field 2 missing")
	}
	if s, _ := id.String(); s != "in" {
		t.Fatal("inner string mismatch")
	}
	if f, _, _ := d.Next(); f != 2 {
		t.Fatal("outer field 2 missing after nested message")
	}
	if v, _ := d.Uint64(); v != 77 {
		t.Fatal("outer trailing value mismatch")
	}
}

func TestNestedMessageLarge(t *testing.T) {
	// Payload > 127 bytes forces the back-patch shift path.
	payload := bytes.Repeat([]byte{0xab}, 1000)
	e := NewEncoder(0)
	e.Message(3, func(sub *Encoder) {
		sub.BytesField(1, payload)
	})
	e.String(4, "tail")

	d := NewDecoder(e.Bytes())
	f, _, err := d.Next()
	if err != nil || f != 3 {
		t.Fatalf("Next: %d %v", f, err)
	}
	inner, err := d.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	id := NewDecoder(inner)
	if f, _, _ := id.Next(); f != 1 {
		t.Fatal("inner field missing")
	}
	got, err := id.Bytes()
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("large nested payload corrupted: err=%v len=%d", err, len(got))
	}
	if f, _, _ := d.Next(); f != 4 {
		t.Fatal("trailing field lost after large nested message")
	}
	if s, _ := d.String(); s != "tail" {
		t.Fatal("trailing string corrupted")
	}
}

func TestNestedMessageBoundary127And128(t *testing.T) {
	for _, n := range []int{126, 127, 128, 129, 16383, 16384} {
		payload := bytes.Repeat([]byte{7}, n)
		e := NewEncoder(0)
		e.Message(1, func(sub *Encoder) { sub.BytesField(1, payload) })
		d := NewDecoder(e.Bytes())
		if _, _, err := d.Next(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		inner, err := d.Bytes()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		id := NewDecoder(inner)
		if _, _, err := id.Next(); err != nil {
			t.Fatalf("n=%d inner: %v", n, err)
		}
		got, err := id.Bytes()
		if err != nil || len(got) != n {
			t.Fatalf("n=%d: inner len %d err %v", n, len(got), err)
		}
		if !d.Done() {
			t.Fatalf("n=%d: trailing garbage", n)
		}
	}
}

func TestSkipAllTypes(t *testing.T) {
	e := NewEncoder(0)
	e.Uint64(1, 5)
	e.tag(2, tFixed64) // a fixed 8-byte field, which no encoder method writes
	e.buf = append(e.buf, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f)
	e.String(3, "skipme")
	e.Uint64(4, 99)

	d := NewDecoder(e.Bytes())
	for i := 0; i < 3; i++ {
		_, typ, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Skip(typ); err != nil {
			t.Fatal(err)
		}
	}
	f, _, err := d.Next()
	if err != nil || f != 4 {
		t.Fatalf("after skips: field=%d err=%v", f, err)
	}
	if v, _ := d.Uint64(); v != 99 {
		t.Fatal("value after skips corrupted")
	}
}

func TestDecoderErrors(t *testing.T) {
	// Field number 0 is invalid.
	d := NewDecoder([]byte{0x00})
	if _, _, err := d.Next(); err == nil {
		t.Fatal("field 0 should be rejected")
	}
	// Wire type 7 is invalid.
	d = NewDecoder([]byte{0x0f})
	if _, _, err := d.Next(); err == nil {
		t.Fatal("wire type 7 should be rejected")
	}
	// Truncated length-delimited body.
	e := NewEncoder(0)
	e.BytesField(1, []byte("hello"))
	buf := e.Bytes()[:4]
	d = NewDecoder(buf)
	if _, _, err := d.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Bytes(); err == nil {
		t.Fatal("truncated bytes should error")
	}
	// Truncated fixed64.
	d = NewDecoder([]byte{0x09, 1, 2, 3})
	if _, _, err := d.Next(); err != nil {
		t.Fatal(err)
	}
	if err := d.Skip(tFixed64); err == nil {
		t.Fatal("truncated fixed64 should error")
	}
	// Length header claiming more than remains.
	d = NewDecoder([]byte{0x0a, 0xff, 0xff, 0xff, 0xff, 0x07, 1})
	if _, _, err := d.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Bytes(); err == nil {
		t.Fatal("oversized length should error")
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(16)
	e.Uint64(1, 1)
	n := e.Len()
	if n == 0 {
		t.Fatal("encode produced nothing")
	}
	e.Reset()
	if e.Len() != 0 {
		t.Fatal("Reset should empty the buffer")
	}
	e.Uint64(1, 1)
	if e.Len() != n {
		t.Fatal("encoding after Reset should be identical")
	}
}

type testMsg struct {
	ID   uint64
	Name string
	Data []byte
}

func (m *testMsg) MarshalWire(e *Encoder) {
	e.Uint64(1, m.ID)
	e.String(2, m.Name)
	e.BytesField(3, m.Data)
}

func (m *testMsg) UnmarshalWire(d *Decoder) error {
	for !d.Done() {
		f, typ, err := d.Next()
		if err != nil {
			return err
		}
		switch f {
		case 1:
			m.ID, err = d.Uint64()
		case 2:
			m.Name, err = d.String()
		case 3:
			var b []byte
			b, err = d.Bytes()
			m.Data = append([]byte(nil), b...)
		default:
			err = d.Skip(typ)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func TestMarshalUnmarshalRoundtrip(t *testing.T) {
	in := &testMsg{ID: 123456, Name: "table/a.b.c", Data: bytes.Repeat([]byte{9}, 300)}
	buf := Marshal(in)
	var out testMsg
	if err := Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Name != in.Name || !bytes.Equal(out.Data, in.Data) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", out, in)
	}
}

func TestUnknownFieldSkipped(t *testing.T) {
	e := NewEncoder(0)
	e.Uint64(1, 10)
	e.String(9, "future field") // not in testMsg
	e.String(2, "name")
	var out testMsg
	if err := Unmarshal(append([]byte(nil), e.Bytes()...), &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != 10 || out.Name != "name" {
		t.Fatalf("unknown-field skip broke decoding: %+v", out)
	}
}

func TestMessageRoundtripProperty(t *testing.T) {
	f := func(id uint64, name string, data []byte) bool {
		in := &testMsg{ID: id, Name: name, Data: data}
		var out testMsg
		if err := Unmarshal(Marshal(in), &out); err != nil {
			return false
		}
		return out.ID == in.ID && out.Name == in.Name && bytes.Equal(out.Data, in.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode1KB(b *testing.B) { benchEncode(b, 1<<10) }
func BenchmarkEncode1MB(b *testing.B) { benchEncode(b, 1<<20) }
func BenchmarkDecode1KB(b *testing.B) { benchDecode(b, 1<<10) }
func BenchmarkDecode1MB(b *testing.B) { benchDecode(b, 1<<20) }

func benchEncode(b *testing.B, size int) {
	data := make([]byte, size)
	m := &testMsg{ID: 1, Name: "bench", Data: data}
	e := NewEncoder(size + 64)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		m.MarshalWire(e)
	}
}

func benchDecode(b *testing.B, size int) {
	m := &testMsg{ID: 1, Name: "bench", Data: make([]byte, size)}
	buf := Marshal(m)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out testMsg
		if err := Unmarshal(buf, &out); err != nil {
			b.Fatal(err)
		}
	}
}
