package wire

import (
	"errors"
	"fmt"

	"cachecost/internal/freelist"
)

// Type is a wire type, the low three bits of a field tag.
type Type uint8

// Wire types, protobuf-compatible where it matters.
const (
	tVarint  Type = 0 // uint64/int64/bool
	tFixed64 Type = 1 // fixed 8-byte values: no field encodes one, Skip steps over it
	TBytes   Type = 2 // length-delimited: bytes, string, nested messages
)

// errBadTag is returned when a tag has an unknown wire type or field 0.
var errBadTag = errors.New("wire: malformed tag")

// Encoder appends fields to a buffer. The zero value is ready to use;
// Reset lets callers reuse the underlying allocation across messages,
// which all hot paths in this repository do.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder whose buffer has the given initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Reset truncates the buffer, retaining capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Bytes returns the encoded message. The slice aliases the encoder's
// internal buffer and is invalidated by the next Reset or append.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the current encoded length.
func (e *Encoder) Len() int { return len(e.buf) }

func (e *Encoder) tag(field uint32, t Type) {
	e.buf = AppendUvarint(e.buf, uint64(field)<<3|uint64(t))
}

// Uint64 encodes field as a varint.
func (e *Encoder) Uint64(field uint32, v uint64) {
	e.tag(field, tVarint)
	e.buf = AppendUvarint(e.buf, v)
}

// Int64 encodes field as a zigzag varint.
func (e *Encoder) Int64(field uint32, v int64) {
	e.tag(field, tVarint)
	e.buf = AppendUvarint(e.buf, Zigzag(v))
}

// Bool encodes field as a 0/1 varint.
func (e *Encoder) Bool(field uint32, v bool) {
	e.tag(field, tVarint)
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// BytesField encodes field as length-delimited bytes.
func (e *Encoder) BytesField(field uint32, v []byte) {
	e.tag(field, TBytes)
	e.buf = AppendUvarint(e.buf, uint64(len(v)))
	e.buf = append(e.buf, v...)
}

// String encodes field as length-delimited UTF-8.
func (e *Encoder) String(field uint32, v string) {
	e.tag(field, TBytes)
	e.buf = AppendUvarint(e.buf, uint64(len(v)))
	e.buf = append(e.buf, v...)
}

// Message encodes a nested message field by invoking fn with a fresh
// sub-encoder region. The nested length prefix is back-patched, costing one
// copy when the guess is wrong — the same trade protobuf implementations
// make.
func (e *Encoder) Message(field uint32, fn func(*Encoder)) {
	e.tag(field, TBytes)
	// Reserve one byte for the common small-message case.
	lenAt := len(e.buf)
	e.buf = append(e.buf, 0)
	start := len(e.buf)
	fn(e)
	n := len(e.buf) - start
	if n < 0x80 {
		e.buf[lenAt] = byte(n)
		return
	}
	// Length needs more than one byte: shift the payload right.
	need := UvarintLen(uint64(n))
	e.buf = append(e.buf, make([]byte, need-1)...)
	copy(e.buf[lenAt+need:], e.buf[start:start+n])
	tmp := AppendUvarint(e.buf[lenAt:lenAt], uint64(n))
	_ = tmp
}

// Decoder iterates over the fields of an encoded message.
type Decoder struct {
	buf []byte
	pos int
}

// NewDecoder returns a decoder over buf. The decoder does not copy buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Done reports whether the decoder has consumed all input.
func (d *Decoder) Done() bool { return d.pos >= len(d.buf) }

// Next reads the next field tag, returning the field number and wire type.
func (d *Decoder) Next() (field uint32, t Type, err error) {
	u, n, err := Uvarint(d.buf[d.pos:])
	if err != nil {
		return 0, 0, err
	}
	d.pos += n
	field = uint32(u >> 3)
	t = Type(u & 7)
	if field == 0 || t > TBytes {
		return 0, 0, fmt.Errorf("%w: field=%d type=%d", errBadTag, field, t)
	}
	return field, t, nil
}

// Uint64 reads a varint field body.
func (d *Decoder) Uint64() (uint64, error) {
	u, n, err := Uvarint(d.buf[d.pos:])
	if err != nil {
		return 0, err
	}
	d.pos += n
	return u, nil
}

// Int64 reads a zigzag varint field body.
func (d *Decoder) Int64() (int64, error) {
	u, err := d.Uint64()
	return Unzigzag(u), err
}

// Bool reads a varint field body as a boolean.
func (d *Decoder) Bool() (bool, error) {
	u, err := d.Uint64()
	return u != 0, err
}

// Bytes reads a length-delimited field body. The returned slice aliases the
// decoder's input.
func (d *Decoder) Bytes() ([]byte, error) {
	u, n, err := Uvarint(d.buf[d.pos:])
	if err != nil {
		return nil, err
	}
	if u > uint64(len(d.buf)-d.pos-n) {
		return nil, ErrTruncated
	}
	d.pos += n
	v := d.buf[d.pos : d.pos+int(u)]
	d.pos += int(u)
	return v, nil
}

// String reads a length-delimited field body as a string (one copy).
func (d *Decoder) String() (string, error) {
	b, err := d.Bytes()
	return string(b), err
}

// Skip discards a field body of the given wire type.
func (d *Decoder) Skip(t Type) error {
	switch t {
	case tVarint:
		_, err := d.Uint64()
		return err
	case tFixed64:
		if d.pos+8 > len(d.buf) {
			return ErrTruncated
		}
		d.pos += 8
		return nil
	case TBytes:
		_, err := d.Bytes()
		return err
	default:
		return errBadTag
	}
}

// Marshaler is implemented by message types that can encode themselves.
type Marshaler interface {
	MarshalWire(e *Encoder)
}

// Unmarshaler is implemented by message types that can decode themselves.
type Unmarshaler interface {
	UnmarshalWire(d *Decoder) error
}

// encoderPool recycles Encoder scratch space across Marshal calls so the
// steady state allocates only the returned buffer, never the working one.
var encoderPool = freelist.List[*Encoder]{New: func() *Encoder { return NewEncoder(256) }}

// decoderPool recycles the Decoder header (the input itself is never
// copied), making Unmarshal allocation-free.
var decoderPool = freelist.List[*Decoder]{New: func() *Decoder { return new(Decoder) }}

// Marshal encodes m into a fresh buffer.
func Marshal(m Marshaler) []byte {
	e := encoderPool.Get()
	e.Reset()
	m.MarshalWire(e)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	encoderPool.Put(e)
	return out
}

// Append runs fn with a pooled encoder that writes straight onto the end
// of dst and returns the extended slice: no scratch buffer, no second
// copy. fn must not retain the encoder. Responses built into a
// transport-pool buffer go through here (DESIGN.md, "Buffer ownership").
func Append(dst []byte, fn func(*Encoder)) []byte {
	e := encoderPool.Get()
	scratch := e.buf
	e.buf = dst
	fn(e)
	dst, e.buf = e.buf, scratch
	encoderPool.Put(e)
	return dst
}

// AppendMarshal encodes m onto the end of dst, returning the extended
// slice. Callers that own a reusable buffer avoid Marshal's output
// allocation entirely.
func AppendMarshal(dst []byte, m Marshaler) []byte {
	return Append(dst, m.MarshalWire)
}

// GetEncoder returns a reset encoder from the shared pool. Pair it with
// PutEncoder once the encoded bytes are dead. Hot call sites that encode
// field-by-field with a pooled encoder skip both Marshal's output copy
// and the interface boxing of a message literal — the two allocations
// the Marshaler-based path cannot avoid.
func GetEncoder() *Encoder {
	e := encoderPool.Get()
	e.Reset()
	return e
}

// PutEncoder recycles e. The slice returned by e.Bytes() is invalidated.
func PutEncoder(e *Encoder) { encoderPool.Put(e) }

// Unmarshal decodes buf into m.
func Unmarshal(buf []byte, m Unmarshaler) error {
	d := decoderPool.Get()
	d.buf, d.pos = buf, 0
	err := m.UnmarshalWire(d)
	d.buf = nil
	decoderPool.Put(d)
	return err
}
