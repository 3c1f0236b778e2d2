package wire

import (
	"bytes"
	"testing"
)

// fuzzMsg exercises every field kind the codec supports, including the
// nested-message back-patch path.
type fuzzMsg struct {
	U   uint64
	I   int64
	B   bool
	S   string
	Raw []byte
	Sub struct {
		N uint64
		T string
	}
}

func (m *fuzzMsg) MarshalWire(e *Encoder) {
	e.Uint64(1, m.U)
	e.Int64(2, m.I)
	e.Bool(3, m.B)
	e.String(5, m.S)
	e.BytesField(6, m.Raw)
	e.Message(7, func(e *Encoder) {
		e.Uint64(1, m.Sub.N)
		e.String(2, m.Sub.T)
	})
}

func (m *fuzzMsg) UnmarshalWire(d *Decoder) error {
	for !d.Done() {
		field, t, err := d.Next()
		if err != nil {
			return err
		}
		switch field {
		case 1:
			m.U, err = d.Uint64()
		case 2:
			m.I, err = d.Int64()
		case 3:
			m.B, err = d.Bool()
		case 5:
			m.S, err = d.String()
		case 6:
			m.Raw, err = d.Bytes()
		case 7:
			var sub []byte
			if sub, err = d.Bytes(); err == nil {
				err = m.unmarshalSub(NewDecoder(sub))
			}
		default:
			err = d.Skip(t)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (m *fuzzMsg) unmarshalSub(d *Decoder) error {
	for !d.Done() {
		field, t, err := d.Next()
		if err != nil {
			return err
		}
		switch field {
		case 1:
			m.Sub.N, err = d.Uint64()
		case 2:
			m.Sub.T, err = d.String()
		default:
			err = d.Skip(t)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// FuzzUnmarshal feeds arbitrary bytes to the decoder two ways — the
// generic field-skipping walk and a full message unmarshal — and requires
// that malformed input produce errors, never panics or hangs.
func FuzzUnmarshal(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x08, 0x01})           // field 1 varint 1
	f.Add([]byte{0x12, 0x03, 'a', 'b'}) // truncated bytes field
	f.Add([]byte{0x07})                 // bad wire type
	f.Add([]byte{0x00})                 // field 0
	f.Add(Marshal(&fuzzMsg{U: 7, I: -3, B: true, S: "hello", Raw: []byte{1, 2}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		for !d.Done() {
			_, typ, err := d.Next()
			if err != nil {
				break
			}
			if err := d.Skip(typ); err != nil {
				break
			}
		}
		var m fuzzMsg
		_ = Unmarshal(data, &m)
	})
}

// FuzzMarshalUnmarshal round-trips fuzzed field values through the codec
// and requires exact reconstruction.
func FuzzMarshalUnmarshal(f *testing.F) {
	f.Add(uint64(0), int64(0), false, "", []byte{}, uint64(0), "")
	f.Add(uint64(1<<63), int64(-1), true, "key", []byte{0xff, 0x00}, uint64(42), "nested")
	f.Add(uint64(300), int64(1<<40), false, string(make([]byte, 200)), bytes.Repeat([]byte{7}, 300), uint64(1), "x")
	f.Fuzz(func(t *testing.T, u uint64, i int64, b bool, s string, raw []byte, subN uint64, subT string) {
		in := fuzzMsg{U: u, I: i, B: b, S: s, Raw: raw}
		in.Sub.N, in.Sub.T = subN, subT
		buf := Marshal(&in)
		var out fuzzMsg
		if err := Unmarshal(buf, &out); err != nil {
			t.Fatalf("round-trip decode failed: %v (input %+v)", err, in)
		}
		if out.U != in.U || out.I != in.I || out.B != in.B || out.S != in.S ||
			out.Sub.N != in.Sub.N || out.Sub.T != in.Sub.T {
			t.Fatalf("round-trip mismatch: in %+v out %+v", in, out)
		}
		if !bytes.Equal(out.Raw, in.Raw) && !(len(out.Raw) == 0 && len(in.Raw) == 0) {
			t.Fatalf("bytes round-trip: in %x out %x", in.Raw, out.Raw)
		}
	})
}
