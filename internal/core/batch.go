package core

import (
	"fmt"

	"cachecost/internal/remotecache"
	"cachecost/internal/rpc"
	"cachecost/internal/trace"
	"cachecost/internal/wire"
)

// Multi-key client operations. A batch of B point reads is ONE
// client-visible request: one front-door frame, one root span, one
// fan-out through the architecture's cache hierarchy — so every
// per-message overhead the paper's cost model charges (RPC framing,
// (de)serialization, the SQL front-end) is paid once per batch instead
// of once per key. The per-key work (cache lookups, executor rows,
// digests) still scales with B; that split is exactly what the batch
// figure measures.
//
// Semantics are positional throughout: response slot i answers request
// key i.

// BatchServiceWorker is a worker surface that can carry multi-key
// operations. ReadBatch returns one digest per key, positionally;
// WriteBatch applies keys[i] = values[i] for every i.
type BatchServiceWorker interface {
	ServiceWorker
	ReadBatch(keys []string) ([][]byte, error)
	WriteBatch(keys []string, values [][]byte) error
}

// readBatch serves a multi-key read on lane l, returning raw values
// positionally and the transport buffers they are borrowed from (the
// caller recycles those once it is done with the values). A tier with a
// batched protocol runs it; the consistency designs keep their per-key
// read protocols (version checks and leases are per-key by design) and
// the batch still saves the per-op front-door frames.
func (s *KVService) readBatch(l *kvLane, sc trace.SpanContext, keys []string) (values, held [][]byte, err error) {
	if br, ok := l.tier.(batchReader[[]byte]); ok {
		values, held, hits, err := br.readBatch(sc, keys, l.rows)
		s.count(len(keys), hits)
		return values, held, err
	}
	values = make([][]byte, len(keys))
	for i, k := range keys {
		v, h, err := s.read(l, sc, k)
		if h != nil {
			held = append(held, h)
		}
		if err != nil {
			return nil, held, err
		}
		values[i] = v
	}
	return values, held, nil
}

// writeBatch applies a multi-key write on lane l: in one step where the
// tier batches its invalidations, key by key elsewhere.
func (s *KVService) writeBatch(l *kvLane, sc trace.SpanContext, keys []string, values [][]byte) error {
	if len(keys) != len(values) {
		return fmt.Errorf("core: WriteBatch %d keys but %d values", len(keys), len(values))
	}
	if bd, ok := l.tier.(batchDropper[[]byte]); ok {
		return bd.dropBatch(sc, keys, values, l.rows)
	}
	for i := range keys {
		if err := s.write(l, sc, keys[i], values[i]); err != nil {
			return err
		}
	}
	return nil
}

// handleReadBatch is the client-facing multi-key read: one request
// frame in (MultiGetRequest shape {1: key...}), one reply frame out
// carrying a packed found bitmap and one 16-byte digest per key.
func (s *KVService) handleReadBatch(l *kvLane, sc trace.SpanContext, req []byte) ([]byte, error) {
	sc.Lane().EnterOp(s.appComp)
	act, asc := trace.Start(sc, "app", "read")
	defer act.End()
	var r remotecache.MultiGetRequest
	if err := wire.Unmarshal(req, &r); err != nil {
		return nil, err
	}
	act.AnnotateInt("batch.keys", int64(len(r.Keys)))
	values, held, err := s.readBatch(l, asc, r.Keys)
	if err != nil {
		rpc.PutBuffers(held)
		return nil, err
	}
	var total int
	found := make([]bool, len(values))
	var dig [16]byte
	out := wire.Append(rpc.GetBuffer(), func(e *wire.Encoder) {
		for i, v := range values {
			total += len(v)
			found[i] = true
			e.BytesField(2, appendDigest(dig[:0], v))
		}
		e.PackedBools(1, found)
	})
	act.SetBytes(len(req), total)
	rpc.PutBuffers(held) // the digests were the last read of the values
	return out, nil
}

// handleWriteBatch is the client-facing multi-key write (MultiSetRequest
// shape in, Ack shape out).
func (s *KVService) handleWriteBatch(l *kvLane, sc trace.SpanContext, req []byte) ([]byte, error) {
	sc.Lane().EnterOp(s.appComp)
	act, asc := trace.Start(sc, "app", "write")
	defer act.End()
	var r remotecache.MultiSetRequest
	if err := wire.Unmarshal(req, &r); err != nil {
		return nil, err
	}
	act.AnnotateInt("batch.keys", int64(len(r.Keys)))
	if err := s.writeBatch(l, asc, r.Keys, r.Values); err != nil {
		return nil, err
	}
	act.SetBytes(len(req), 0)
	return encodeAck(true), nil
}

// frontReadBatch performs one client multi-key read against a front
// door: one encoded frame, one dispatch, one decoded reply.
func frontReadBatch(sc trace.SpanContext, front *rpc.Server, keys []string) ([][]byte, error) {
	e := wire.GetEncoder()
	e.StringSlice(1, keys)
	respBody, err := front.DispatchCtx(sc, "app.ReadBatch", e.Bytes())
	wire.PutEncoder(e)
	if err != nil {
		return nil, err
	}
	var resp remotecache.MultiGetResponse
	err = wire.Unmarshal(respBody, &resp)
	rpc.PutBuffer(respBody)
	if err != nil {
		return nil, err
	}
	if len(resp.Values) != len(keys) {
		return nil, fmt.Errorf("core: ReadBatch returned %d digests for %d keys", len(resp.Values), len(keys))
	}
	return resp.Values, nil
}

// frontWriteBatch performs one client multi-key write against a front
// door (MultiSetRequest shape {1: key..., 2: value..., 3: ttl_ms}).
func frontWriteBatch(sc trace.SpanContext, front *rpc.Server, keys []string, values [][]byte) error {
	e := wire.GetEncoder()
	e.StringSlice(1, keys)
	e.BytesSlice(2, values)
	e.Int64(3, 0)
	respBody, err := front.DispatchCtx(sc, "app.WriteBatch", e.Bytes())
	wire.PutEncoder(e)
	rpc.PutBuffer(respBody)
	return err
}

// ReadBatch drives one multi-key client read through the worker's lane:
// one root span, one front door round trip, one digest per key.
func (w *KVWorker) ReadBatch(keys []string) ([][]byte, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	sc, act := w.s.cfg.Tracer.StartRequest("read")
	vs, err := frontReadBatch(sc, w.l.front, keys)
	act.End()
	return vs, err
}

// WriteBatch drives one multi-key client write through the worker's lane.
func (w *KVWorker) WriteBatch(keys []string, values [][]byte) error {
	if len(keys) == 0 {
		return nil
	}
	sc, act := w.s.cfg.Tracer.StartRequest("write")
	err := frontWriteBatch(sc, w.l.front, keys, values)
	act.End()
	return err
}
