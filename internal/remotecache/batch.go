package remotecache

import (
	"errors"
	"fmt"

	"cachecost/internal/meter"
	"cachecost/internal/rpc"
	"cachecost/internal/trace"
	"cachecost/internal/wire"
)

// Multi-key operations. A single-node client ships a batch as one request
// frame and one response frame regardless of how many keys it carries, so
// the per-message costs the paper's model charges — RPC framing, flush,
// dispatch, trace-context propagation — are amortized over the batch.
// Response vectors are positional: Found[i] and Values[i] answer Keys[i]
// of the request, with Values[i] empty on a miss.
//
// Partial-result semantics: a single-node client sends a batch as one
// frame, so a failed RPC demotes the whole batch to misses — counted as
// ONE demotion, it was one RPC. A routed client has no one node to batch
// against and refuses a batch with errRoutedBatch: no figure batches over
// a multi-node tier.

// MultiGetRequest asks for many keys in one frame.
type MultiGetRequest struct {
	Keys []string
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *MultiGetRequest) UnmarshalWire(d *wire.Decoder) error {
	return decodeFields(d, func(f uint32, t wire.Type) (err error) {
		if f == 1 {
			var k string
			k, err = d.String()
			r.Keys = append(r.Keys, k)
			return err
		}
		return d.Skip(t)
	})
}

// MultiGetResponse carries positional results: Found as a packed bitmap,
// Values as repeated bytes aligned with the request's key order.
type MultiGetResponse struct {
	Found  []bool
	Values [][]byte
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *MultiGetResponse) UnmarshalWire(d *wire.Decoder) error {
	return decodeFields(d, func(f uint32, t wire.Type) (err error) {
		switch f {
		case 1:
			r.Found, err = d.PackedBools(r.Found)
		case 2:
			var b []byte
			b, err = d.Bytes()
			if len(b) == 0 {
				r.Values = append(r.Values, nil)
			} else {
				r.Values = append(r.Values, append([]byte(nil), b...))
			}
		default:
			err = d.Skip(t)
		}
		return err
	})
}

// MultiSetRequest stores many key/value pairs. Decoded, Keys and Values
// alias the decoder's input, as handleSet's key and value do: a handler
// that keeps them copies them.
type MultiSetRequest struct {
	Keys   []string
	Values [][]byte
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *MultiSetRequest) UnmarshalWire(d *wire.Decoder) error {
	return decodeFields(d, func(f uint32, t wire.Type) (err error) {
		switch f {
		case 1:
			var k string
			k, err = d.StringZC()
			r.Keys = append(r.Keys, k)
		case 2:
			var b []byte
			b, err = d.Bytes()
			r.Values = append(r.Values, b)
		default:
			err = d.Skip(t)
		}
		return err
	})
}

// MultiAck is the positional write reply: OK[i] answers Keys[i] (for
// MultiDelete, whether the key existed).
type MultiAck struct {
	OK []bool
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *MultiAck) UnmarshalWire(d *wire.Decoder) error {
	return decodeFields(d, func(f uint32, t wire.Type) (err error) {
		if f == 1 {
			r.OK, err = d.PackedBools(r.OK)
			return err
		}
		return d.Skip(t)
	})
}

// errRoutedBatch refuses a batch on a routed client.
var errRoutedBatch = errors.New("remotecache: a routed client does not batch")

// MultiBorrowCtx fetches keys, reporting per-key presence positionally,
// under the caller's span context. Nothing is copied: every found value
// aliases the one MultiGet response, held. The caller hands it to
// rpc.PutBuffer when it is done reading the values and must not touch
// them afterwards (DESIGN.md, "Buffer ownership"); on an error held is
// nil.
//
// The RPC counts two cache messages (one request, one response frame —
// NOT two per key); each key's outcome is counted as a cache hit or miss
// exactly as the scalar path would. A failed RPC demotes the keys to
// misses without failing the batch.
func (c *Client) MultiBorrowCtx(sc trace.SpanContext, keys []string) (values [][]byte, found []bool, held [][]byte, err error) {
	if c.router != nil {
		return nil, nil, nil, errRoutedBatch
	}
	defer sc.Lane().AddStage(meter.StageCache, sc.Lane().StageClock())
	values = make([][]byte, len(keys))
	found = make([]bool, len(keys))
	if len(keys) == 0 {
		return values, found, nil, nil
	}
	h, err := c.multiGetOn(sc, keys, values, found)
	demote(sc.Lane(), err) // one failed RPC, one demotion; every key stays a miss
	if h != nil {
		held = [][]byte{h}
	}
	for _, f := range found {
		sc.Lane().CountCacheHit(f)
	}
	return values, found, held, nil
}

// multiGetOn is one cache.MultiGet round trip for keys on the client's
// one node. The MultiGetResponse shape {1: packed found, 2: value...} is
// read in place, straight into the batch's positional slots: values[i]
// aliases the response buffer, which is returned for the caller to
// release. On an error the buffer is recycled here and every slot is left
// a miss.
func (c *Client) multiGetOn(sc trace.SpanContext, keys []string, values [][]byte, found []bool) (held []byte, err error) {
	e := wire.GetEncoder()
	e.StringSlice(1, keys)
	held, err = rpc.CallTraced(c.conns[0], sc, "cache.MultiGet", e.Bytes())
	wire.PutEncoder(e)
	if err != nil {
		return nil, err
	}
	sc.Lane().CountCacheMsgs(2)
	flags := found[:0]
	n := 0
	err = wire.Decode(held, func(d *wire.Decoder) error {
		return decodeFields(d, func(f uint32, t wire.Type) (err error) {
			switch f {
			case 1:
				flags, err = d.PackedBools(flags)
			case 2:
				var v []byte
				if v, err = d.Bytes(); err == nil && n < len(values) && len(v) > 0 {
					values[n] = v
				}
				n++
			default:
				err = d.Skip(t)
			}
			return err
		})
	})
	if err == nil && (len(flags) != len(keys) || n != len(keys)) {
		err = fmt.Errorf("remotecache: MultiGet response misaligned: %d keys, %d found, %d values",
			len(keys), len(flags), n)
	}
	if err != nil {
		clear(values)
		clear(found)
		rpc.PutBuffer(held)
		return nil, err
	}
	return held, nil
}

// MultiSetCtx stores keys[i] = values[i] under the caller's span context.
// A failed RPC is one counted no-op demotion: the next read of those keys
// re-populates.
func (c *Client) MultiSetCtx(sc trace.SpanContext, keys []string, values [][]byte) error {
	if c.router != nil {
		return errRoutedBatch
	}
	defer sc.Lane().AddStage(meter.StageCache, sc.Lane().StageClock())
	if len(keys) != len(values) {
		return fmt.Errorf("remotecache: MultiSet %d keys but %d values", len(keys), len(values))
	}
	if len(keys) == 0 {
		return nil
	}
	e := wire.GetEncoder()
	e.StringSlice(1, keys)
	e.BytesSlice(2, values)
	return demote(sc.Lane(), callAck(sc, c.conns[0], "cache.MultiSet", e, new(MultiAck)))
}

// MultiDeleteCtx removes keys under the caller's span context — the
// batched invalidation path. A failed RPC is one counted demotion; those
// entries may survive until their node recovers, the
// same bounded-staleness price the scalar Delete documents.
func (c *Client) MultiDeleteCtx(sc trace.SpanContext, keys []string) error {
	if c.router != nil {
		return errRoutedBatch
	}
	defer sc.Lane().AddStage(meter.StageCache, sc.Lane().StageClock())
	if len(keys) == 0 {
		return nil
	}
	e := wire.GetEncoder()
	e.StringSlice(1, keys)
	return demote(sc.Lane(), callAck(sc, c.conns[0], "cache.MultiDelete", e, new(MultiAck)))
}

// handleMultiGet serves cache.MultiGet. Keys are decoded zero-copy (they
// are lookup arguments, dead once the handler returns); the response is
// one frame with a packed found bitmap and the values positionally.
func (s *Server) handleMultiGet(sc trace.SpanContext, req []byte) ([]byte, error) {
	var keys []string
	err := wire.Decode(req, func(d *wire.Decoder) error {
		return decodeFields(d, func(f uint32, t wire.Type) error {
			if f == 1 {
				k, err := d.StringZC()
				if err != nil {
					return err
				}
				keys = append(keys, k)
				return nil
			}
			return d.Skip(t)
		})
	})
	if err != nil {
		return nil, err
	}
	s.acquire(sc.Lane())
	defer s.release()
	act, _ := trace.Start(sc, s.name, "multiget")
	found := make([]bool, len(keys))
	values := make([][]byte, len(keys))
	hits, size := 0, 16
	for i, k := range keys {
		values[i], found[i] = s.store.Get(k)
		if s.hot != nil {
			s.hot.Record(k)
		}
		if found[i] {
			hits++
		}
		size += len(values[i]) + 8
	}
	resp := reply(size, func(e *wire.Encoder) { // MultiGetResponse shape
		e.PackedBools(1, found)
		e.BytesSlice(2, values)
	})
	act.AnnotateInt("batch.keys", int64(len(keys)))
	act.AnnotateInt("batch.hits", int64(hits))
	act.SetBytes(len(req), len(resp))
	act.End()
	return resp, nil
}

// handleMultiSet serves cache.MultiSet. The request is read in place, as
// handleSet's is: keys and values alias it until put copies them.
func (s *Server) handleMultiSet(sc trace.SpanContext, req []byte) ([]byte, error) {
	var r MultiSetRequest
	if err := wire.Unmarshal(req, &r); err != nil {
		return nil, err
	}
	if len(r.Keys) != len(r.Values) {
		return nil, fmt.Errorf("remotecache: MultiSet %d keys but %d values", len(r.Keys), len(r.Values))
	}
	s.acquire(sc.Lane())
	defer s.release()
	act, _ := trace.Start(sc, s.name, "multiset")
	ok := make([]bool, len(r.Keys))
	for i, k := range r.Keys {
		s.put(k, r.Values[i])
		ok[i] = true
	}
	act.AnnotateInt("batch.keys", int64(len(r.Keys)))
	act.SetBytes(len(req), 0)
	act.End()
	return reply(0, func(e *wire.Encoder) { e.PackedBools(1, ok) }), nil
}

// handleMultiDelete serves cache.MultiDelete; OK[i] reports whether
// key i existed.
func (s *Server) handleMultiDelete(sc trace.SpanContext, req []byte) ([]byte, error) {
	var keys []string
	err := wire.Decode(req, func(d *wire.Decoder) error {
		return decodeFields(d, func(f uint32, t wire.Type) error {
			if f == 1 {
				k, err := d.StringZC()
				if err != nil {
					return err
				}
				keys = append(keys, k)
				return nil
			}
			return d.Skip(t)
		})
	})
	if err != nil {
		return nil, err
	}
	s.acquire(sc.Lane())
	defer s.release()
	act, _ := trace.Start(sc, s.name, "multidelete")
	ok := make([]bool, len(keys))
	for i, k := range keys {
		ok[i] = s.store.Delete(k)
	}
	act.AnnotateInt("batch.keys", int64(len(keys)))
	act.End()
	return reply(0, func(e *wire.Encoder) { e.PackedBools(1, ok) }), nil
}
