// Package remotecache implements the remote lookaside cache tier of the
// study (§2.4, Figure 1b): a memcached/Redis-style server fronted by the
// RPC layer, plus a client that talks to one cache node or routes each
// key through a shared cluster.ShardMap over several. Every hit pays an
// RPC round trip and value (de)serialization — the CPU the linked cache
// architecture eliminates.
package remotecache

import "cachecost/internal/wire"

// GetRequest asks for one key.
type GetRequest struct {
	Key string
}

// MarshalWire implements wire.Marshaler.
func (r *GetRequest) MarshalWire(e *wire.Encoder) { e.String(1, r.Key) }

// GetResponse returns the value, if present.
type GetResponse struct {
	Found bool
	Value []byte
}

// MarshalWire implements wire.Marshaler.
func (r *GetResponse) MarshalWire(e *wire.Encoder) {
	e.Bool(1, r.Found)
	e.BytesField(2, r.Value)
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *GetResponse) UnmarshalWire(d *wire.Decoder) error {
	return decodeFields(d, func(f uint32, t wire.Type) (err error) {
		switch f {
		case 1:
			r.Found, err = d.Bool()
		case 2:
			var b []byte
			b, err = d.Bytes()
			r.Value = append([]byte(nil), b...)
		default:
			err = d.Skip(t)
		}
		return err
	})
}

// SetRequest stores a value. The node reads it in place (handleSet).
type SetRequest struct {
	Key   string
	Value []byte
}

// MarshalWire implements wire.Marshaler.
func (r *SetRequest) MarshalWire(e *wire.Encoder) {
	e.String(1, r.Key)
	e.BytesField(2, r.Value)
}

// Ack is the generic success reply for writes.
type Ack struct {
	OK bool
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *Ack) UnmarshalWire(d *wire.Decoder) error {
	return decodeFields(d, func(f uint32, t wire.Type) (err error) {
		if f == 1 {
			r.OK, err = d.Bool()
			return err
		}
		return d.Skip(t)
	})
}

// decodeFields drives a field-by-field decode loop.
func decodeFields(d *wire.Decoder, fn func(f uint32, t wire.Type) error) error {
	for !d.Done() {
		f, t, err := d.Next()
		if err != nil {
			return err
		}
		if err := fn(f, t); err != nil {
			return err
		}
	}
	return nil
}
