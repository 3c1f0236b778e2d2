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
// answers) still scales with B; that split is exactly what the batch
// figure measures.
//
// Semantics are positional throughout: response slot i answers request
// key i.

// BatchServiceWorker is a worker surface that can carry multi-key
// operations. ReadBatch returns one answer per key, positionally;
// WriteBatch applies keys[i] = values[i] for every i.
type BatchServiceWorker interface {
	ServiceWorker
	ReadBatch(keys []string) ([][]byte, error)
	WriteBatch(keys []string, values [][]byte) error
}

// readBatch serves a multi-key read on lane l, returning objects
// positionally and the transport buffers they are borrowed from (the
// caller recycles those once it is done with the objects). A tier with a
// batched protocol runs it over a storage path with a batched load; the
// rest keep their per-key read protocols (the consistency designs' version
// checks and leases are per-key by design, and the catalog's rich objects
// have no batched load), and the batch still saves the per-op front-door
// frames.
func (s *service[V]) readBatch(l *lane[V], sc trace.SpanContext, keys []string) (values []V, held [][]byte, err error) {
	br, ok := l.tier.(batchReader[V])
	if bs, batched := l.src.(batchSource[V]); ok && batched {
		values, held, hits, err := br.readBatch(sc, keys, bs)
		s.count(len(keys), hits)
		return values, held, err
	}
	values = make([]V, len(keys))
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
func (s *service[V]) writeBatch(l *lane[V], sc trace.SpanContext, keys []string, values [][]byte) error {
	if len(keys) != len(values) {
		return fmt.Errorf("core: WriteBatch %d keys but %d values", len(keys), len(values))
	}
	if bd, ok := l.tier.(batchDropper[V]); ok {
		return bd.dropBatch(sc, keys, values, l.src)
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
// carrying a packed found bitmap and one answer per key.
func (s *service[V]) handleReadBatch(l *lane[V], sc trace.SpanContext, req []byte) ([]byte, error) {
	sc.Lane().EnterOp(s.appComp)
	sc.Lane().CountRequest()
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
	out := wire.Append(rpc.GetBuffer(), func(e *wire.Encoder) {
		for i, v := range values {
			total += s.app.answer(e, v)
			found[i] = true
		}
		e.PackedBools(1, found)
	})
	act.SetBytes(len(req), total)
	rpc.PutBuffers(held) // the answers were the last read of the objects
	return out, nil
}

// handleWriteBatch is the client-facing multi-key write (MultiSetRequest
// shape in, Ack shape out).
func (s *service[V]) handleWriteBatch(l *lane[V], sc trace.SpanContext, req []byte) ([]byte, error) {
	sc.Lane().EnterOp(s.appComp)
	sc.Lane().CountRequest()
	act, asc := trace.Start(sc, "app", "write")
	defer act.End()
	// Keys and values alias req, as handleWrite's do: req outlives every
	// use below, and write copies a key for a tier that keeps it.
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
