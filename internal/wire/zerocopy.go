package wire

import "unsafe"

// Decode invokes fn with a pooled decoder over buf, for callers that want
// field-at-a-time access without allocating a Decoder. The decoder is
// only valid inside fn.
func Decode(buf []byte, fn func(*Decoder) error) error {
	d := decoderPool.Get()
	d.buf, d.pos = buf, 0
	err := fn(d)
	d.buf = nil
	decoderPool.Put(d)
	return err
}

// StringZC reads a length-delimited field body as a string WITHOUT
// copying: the result aliases the decoder's input. Callers must not
// retain it past the input buffer's lifetime — in an RPC handler that
// means not past the call, and never into a map or cache. Use it for
// lookup keys on hot paths; everywhere else use String.
func (d *Decoder) StringZC() (string, error) {
	b, err := d.Bytes()
	if err != nil || len(b) == 0 {
		return "", err
	}
	return unsafe.String(unsafe.SliceData(b), len(b)), nil
}
