package wire

import (
	"errors"
	"testing"
)

func roundTripBools(t *testing.T, vs []bool) []bool {
	t.Helper()
	e := NewEncoder(64)
	e.PackedBools(1, vs)
	d := NewDecoder(e.Bytes())
	field, typ, err := d.Next()
	if err != nil || field != 1 || typ != TBytes {
		t.Fatalf("Next = %d %d %v", field, typ, err)
	}
	got, err := d.PackedBools(nil)
	if err != nil {
		t.Fatalf("PackedBools: %v", err)
	}
	if !d.Done() {
		t.Fatal("trailing bytes after packed bools")
	}
	return got
}

func TestPackedBoolsRoundTrip(t *testing.T) {
	cases := [][]bool{
		nil,
		{true},
		{false},
		{true, false, true, true, false, false, true, false},       // exactly one byte
		{true, false, true, true, false, false, true, false, true}, // spills to 2nd byte
		make([]bool, 64),
	}
	// A long pseudo-random vector exercises every bit position.
	long := make([]bool, 131)
	for i := range long {
		long[i] = i%3 == 0 || i%7 == 2
	}
	cases = append(cases, long)

	for ci, vs := range cases {
		got := roundTripBools(t, vs)
		if len(got) != len(vs) {
			t.Fatalf("case %d: len = %d, want %d", ci, len(got), len(vs))
		}
		for i := range vs {
			if got[i] != vs[i] {
				t.Fatalf("case %d: bit %d = %v, want %v", ci, i, got[i], vs[i])
			}
		}
	}
}

func TestPackedBoolsWireSize(t *testing.T) {
	// The point of packing: 32 bools must cost far less than 32 tagged
	// varint fields (2 bytes each = 64). tag + len + count + 4 bitmap
	// bytes = 7.
	e := NewEncoder(64)
	e.PackedBools(1, make([]bool, 32))
	if e.Len() != 7 {
		t.Fatalf("packed 32 bools = %d bytes, want 7", e.Len())
	}
}

func TestPackedBoolsAppendsToDst(t *testing.T) {
	e := NewEncoder(16)
	e.PackedBools(1, []bool{true, false})
	d := NewDecoder(e.Bytes())
	d.Next()
	dst := []bool{false}
	got, err := d.PackedBools(dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != false || got[1] != true || got[2] != false {
		t.Fatalf("append result = %v", got)
	}
}

func TestPackedBoolsMalformed(t *testing.T) {
	enc := func(fn func(e *Encoder)) []byte {
		e := NewEncoder(32)
		fn(e)
		return e.Bytes()
	}
	cases := map[string][]byte{
		// count says 9 bools but only 1 bitmap byte follows
		"short bitmap": enc(func(e *Encoder) { e.BytesField(1, []byte{9, 0xff}) }),
		// count says 1 bool but 2 bitmap bytes follow
		"long bitmap": enc(func(e *Encoder) { e.BytesField(1, []byte{1, 1, 0}) }),
		// spare bits beyond count are set
		"spare bits": enc(func(e *Encoder) { e.BytesField(1, []byte{2, 0xff}) }),
		// empty body: missing count varint
		"empty body": enc(func(e *Encoder) { e.BytesField(1, nil) }),
		// absurd count (allocation bomb)
		"huge count": enc(func(e *Encoder) {
			body := AppendUvarint(nil, 1<<30)
			e.BytesField(1, body)
		}),
	}
	for name, buf := range cases {
		d := NewDecoder(buf)
		if _, _, err := d.Next(); err != nil {
			t.Fatalf("%s: Next: %v", name, err)
		}
		if _, err := d.PackedBools(nil); !errors.Is(err, ErrPackedBools) {
			t.Errorf("%s: err = %v, want ErrPackedBools", name, err)
		}
	}
}

func TestPackedBoolsSkippable(t *testing.T) {
	// An unknown packed field must be skippable as ordinary TBytes.
	e := NewEncoder(32)
	e.PackedBools(7, []bool{true, true, false})
	e.Uint64(8, 42)
	d := NewDecoder(e.Bytes())
	f, typ, _ := d.Next()
	if f != 7 || typ != TBytes {
		t.Fatalf("tag = %d %d", f, typ)
	}
	if err := d.Skip(typ); err != nil {
		t.Fatalf("Skip: %v", err)
	}
	f, _, _ = d.Next()
	v, _ := d.Uint64()
	if f != 8 || v != 42 {
		t.Fatalf("after skip: field %d = %d", f, v)
	}
}

func TestStringAndBytesSlices(t *testing.T) {
	keys := []string{"alpha", "", "gamma"}
	vals := [][]byte{[]byte("one"), nil, []byte("three")}
	e := NewEncoder(64)
	e.StringSlice(1, keys)
	e.BytesSlice(2, vals)

	var gotKeys []string
	var gotVals [][]byte
	d := NewDecoder(e.Bytes())
	for !d.Done() {
		f, typ, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		switch f {
		case 1:
			s, err := d.String()
			if err != nil {
				t.Fatal(err)
			}
			gotKeys = append(gotKeys, s)
		case 2:
			b, err := d.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			gotVals = append(gotVals, append([]byte(nil), b...))
		default:
			d.Skip(typ)
		}
	}
	if len(gotKeys) != 3 || gotKeys[0] != "alpha" || gotKeys[1] != "" || gotKeys[2] != "gamma" {
		t.Fatalf("keys = %q", gotKeys)
	}
	if len(gotVals) != 3 || string(gotVals[0]) != "one" || len(gotVals[1]) != 0 || string(gotVals[2]) != "three" {
		t.Fatalf("vals = %q", gotVals)
	}
}
