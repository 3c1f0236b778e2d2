package core

import (
	"fmt"

	"cachecost/internal/remotecache"
	"cachecost/internal/rpc"
	"cachecost/internal/storage/sql"
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
// key i. Under fault injection the Remote path inherits the cache
// client's partial-result behaviour — a dead cache node demotes its
// keys to misses (one degradation per failed node RPC) and the batch
// falls through to one batched storage read, so no op is dropped.

// BatchServiceWorker is a worker surface that can carry multi-key
// operations. ReadBatch returns one digest per key, positionally;
// WriteBatch applies keys[i] = values[i] for every i.
type BatchServiceWorker interface {
	ServiceWorker
	ReadBatch(keys []string) ([][]byte, error)
	WriteBatch(keys []string, values [][]byte) error
}

// loadBatchFromDB is the batched storage read shared by all
// architectures: one sql.BatchQuery RPC binds the point-read template
// once per key, so storage parses, burns its front-end and validates
// its lease once for the whole batch.
func (s *KVService) loadBatchFromDB(l *kvLane, sc trace.SpanContext, keys []string) ([][]byte, error) {
	params := make([]sql.Value, len(keys))
	for i, k := range keys {
		params[i] = sql.Text(k)
	}
	results, err := l.db.BatchQueryCtx(sc, "SELECT v FROM kvdata WHERE k = ?", params)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(keys))
	for i, rs := range results {
		if len(rs.Rows) == 0 {
			return nil, fmt.Errorf("core: no row for key %q", keys[i])
		}
		out[i] = rs.Rows[0][0].Blob
	}
	return out, nil
}

// readBatch serves a multi-key read through the architecture's cache
// hierarchy on lane l, returning raw values positionally.
func (s *KVService) readBatch(l *kvLane, sc trace.SpanContext, keys []string) ([][]byte, error) {
	switch s.cfg.Arch {
	case Base:
		return s.loadBatchFromDB(l, sc, keys)
	case Remote:
		s.cacheReads.Add(int64(len(keys)))
		values, found, err := l.rc.MultiGetCtx(sc, keys)
		if err != nil {
			return nil, err
		}
		var missKeys []string
		var missIdx []int
		for i, f := range found {
			if f {
				s.cacheHits.Add(1)
				continue
			}
			missKeys = append(missKeys, keys[i])
			missIdx = append(missIdx, i)
		}
		if len(missKeys) == 0 {
			return values, nil
		}
		loaded, err := s.loadBatchFromDB(l, sc, missKeys)
		if err != nil {
			return nil, err
		}
		for j, i := range missIdx {
			values[i] = loaded[j]
		}
		// Backfill the cache with one batched set; a dead node degrades
		// this to a no-op, same as the scalar path.
		if err := l.rc.MultiSetTTLCtx(sc, missKeys, loaded, 0); err != nil {
			return nil, err
		}
		return values, nil
	case Linked:
		s.cacheReads.Add(int64(len(keys)))
		// One fault decision per batch: the in-process cache shard is
		// either up or down for the whole request.
		if s.linkedFault(l, sc) {
			return s.loadBatchFromDB(l, sc, keys)
		}
		values := make([][]byte, len(keys))
		var missKeys []string
		var missIdx []int
		for i, k := range keys {
			if v, ok := s.lc.GetCtx(sc, k); ok {
				values[i] = v
				s.cacheHits.Add(1)
				continue
			}
			missKeys = append(missKeys, k)
			missIdx = append(missIdx, i)
		}
		if len(missKeys) == 0 {
			return values, nil
		}
		loaded, err := s.loadBatchFromDB(l, sc, missKeys)
		if err != nil {
			return nil, err
		}
		for j, i := range missIdx {
			values[i] = loaded[j]
			s.lc.PutCtx(sc, missKeys[j], loaded[j])
		}
		return values, nil
	default:
		// Consistency architectures keep their per-key read protocols
		// (version checks and leases are per-key by design); the batch
		// still saves the per-op front-door frames.
		values := make([][]byte, len(keys))
		for i, k := range keys {
			v, err := s.read(l, sc, k)
			if err != nil {
				return nil, err
			}
			values[i] = v
		}
		return values, nil
	}
}

// writeBatch applies a multi-key write on lane l. Storage writes stay
// per-statement (each update replicates through raft on its own), but
// the Remote architecture batches its lookaside invalidations into one
// MultiDelete frame.
func (s *KVService) writeBatch(l *kvLane, sc trace.SpanContext, keys []string, values [][]byte) error {
	if len(keys) != len(values) {
		return fmt.Errorf("core: WriteBatch %d keys but %d values", len(keys), len(values))
	}
	if s.cfg.Arch != Remote {
		for i := range keys {
			if err := s.write(l, sc, keys[i], values[i]); err != nil {
				return err
			}
		}
		return nil
	}
	for i := range keys {
		if _, err := l.db.ExecCtx(sc, "UPDATE kvdata SET v = ? WHERE k = ?",
			sql.Blob(values[i]), sql.Text(keys[i])); err != nil {
			return err
		}
	}
	return l.rc.MultiDeleteCtx(sc, keys)
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
	values, err := s.readBatch(l, asc, r.Keys)
	if err != nil {
		return nil, err
	}
	var total int
	found := make([]bool, len(values))
	var dig [16]byte
	e := wire.GetEncoder()
	for i, v := range values {
		total += len(v)
		found[i] = true
		e.BytesField(2, appendDigest(dig[:0], v))
	}
	e.PackedBools(1, found)
	act.SetBytes(len(req), total)
	out := append(rpc.GetBuffer(), e.Bytes()...)
	wire.PutEncoder(e)
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
