package storage

import (
	"fmt"

	"cachecost/internal/freelist"
	"cachecost/internal/meter"
	"cachecost/internal/rpc"
	"cachecost/internal/storage/plan"
	"cachecost/internal/storage/sql"
	"cachecost/internal/trace"
	"cachecost/internal/wire"
)

// Batched point reads. sql.BatchQuery executes one parameterized SELECT
// template once per bound parameter — the "WHERE k = ?" point-read N
// keys at a time. The batch pays the per-statement overheads ONCE:
// one request decode and parse, one SQL front-end burn, one lease
// validation, one path statement count, one response frame. Only the
// per-row executor and storage-engine work scales with N — exactly the
// amortization the paper's cost model says batching should buy (§2.3),
// since the front-end work it cannot elide dominates point reads.
//
// The request reuses the QueryRequest shape {1: sql, 2: param...} with
// one parameter per key; the response is a BatchQueryResponse carrying
// one marshaled result set per parameter, positionally aligned.

// BatchQueryResponse is the body of the sql.BatchQuery reply: result
// set i answers parameter i of the request. A decoded response borrows
// like a decoded ResultSet: every set's names and values alias the
// buffer it was decoded from.
type BatchQueryResponse struct {
	Results []plan.ResultSet

	// held is the transport buffer a response BatchQueryCtx returned
	// aliases, which Detach hands back.
	held []byte
}

// MarshalWire implements wire.Marshaler.
func (r *BatchQueryResponse) MarshalWire(e *wire.Encoder) {
	for i := range r.Results {
		e.Message(1, r.Results[i].MarshalWire)
	}
}

// UnmarshalWire implements wire.Unmarshaler. It replaces what r held,
// decoding into the result sets r already has before adding any, so a
// reused response keeps their arrays.
func (r *BatchQueryResponse) UnmarshalWire(d *wire.Decoder) error {
	r.Results = r.Results[:0]
	for !d.Done() {
		f, t, err := d.Next()
		if err != nil {
			return err
		}
		if f != 1 {
			if err := d.Skip(t); err != nil {
				return err
			}
			continue
		}
		body, err := d.Bytes()
		if err != nil {
			return err
		}
		if len(r.Results) < cap(r.Results) {
			r.Results = r.Results[:len(r.Results)+1]
		} else {
			r.Results = append(r.Results, plan.ResultSet{})
		}
		if err := wire.Unmarshal(body, &r.Results[len(r.Results)-1]); err != nil {
			return err
		}
	}
	return nil
}

// batches recycles the responses BatchQueryCtx hands out.
var batches = freelist.List[*BatchQueryResponse]{New: func() *BatchQueryResponse { return new(BatchQueryResponse) }}

// Detach recycles a response BatchQueryCtx returned but hands back the
// buffer its sets alias: a caller that keeps reading values taken from
// the response passes it to rpc.PutBuffer once done, and one that does
// not passes it at once. Call it at most once. Each set is Reset, so the
// recycled response references nothing of that buffer; a response of
// more than maxKeptResults sets is kept without them.
func (r *BatchQueryResponse) Detach() (held []byte) {
	held, r.held = r.held, nil
	for i := range r.Results {
		r.Results[i].Reset()
	}
	r.Results = r.Results[:0]
	if cap(r.Results) > maxKeptResults {
		r.Results = nil
	}
	batches.Put(r)
	return held
}

// maxKeptResults bounds the sets a recycled batch response keeps for
// the next decode: a rare large batch's are dropped, not pinned.
const maxKeptResults = 256

// BatchQueryCtx is BatchQuery carrying the caller's span context. The
// response borrows the reply, as QueryCtx's ResultSet does; the caller
// Detaches it. An empty parameter list returns nil without touching the
// node.
func (c *Client) BatchQueryCtx(sc trace.SpanContext, src string, params []sql.Value) (*BatchQueryResponse, error) {
	if len(params) == 0 {
		return nil, nil
	}
	defer sc.Lane().AddStage(meter.StageStorage, sc.Lane().StageClock())
	respBody, err := c.call(sc, "sql.BatchQuery", src, params)
	if err != nil {
		return nil, err
	}
	resp := batches.Get()
	err = wire.Unmarshal(respBody, resp)
	resp.held = respBody
	if err == nil && len(resp.Results) != len(params) {
		err = fmt.Errorf("storage: BatchQuery returned %d result sets for %d params",
			len(resp.Results), len(params))
	}
	if err != nil {
		rpc.PutBuffer(resp.Detach())
		return nil, err
	}
	return resp, nil
}

// handleBatchQuery serves sql.BatchQuery on the leader: single parse,
// single front-end burn, single lease validation, then the executor
// runs the pre-parsed statement once per parameter. One batch is one
// statement against the path model: the per-key rows all come from a
// single parsed plan.
func (n *Node) handleBatchQuery(sc trace.SpanContext, req []byte) ([]byte, error) {
	lane := sc.Lane()
	stmt, sqlAct, err := n.parseStatement(sc, req, true)
	q := &n.req
	if err == nil && len(q.Params) == 0 {
		err = fmt.Errorf("storage: sql.BatchQuery needs at least one parameter")
	}
	sqlAct.AnnotateInt("batch.keys", int64(len(q.Params)))
	sqlAct.End()
	if err != nil {
		return nil, err
	}
	sel := stmt.(*sql.SelectStmt)
	n.due.lease = true
	kvAct, _ := trace.Start(sc, "storage.kv", "exec")
	_, err = n.exec(lane, func() (*plan.ResultSet, error) {
		var e error
		n.batch.Results, e = n.db.QueryEach(sel, q.Params)
		return nil, e
	})
	kvAct.AnnotateInt("batch.keys", int64(len(q.Params)))
	kvAct.End()
	if err != nil {
		return nil, err
	}
	// The results are the leader DB's until its next statement; the
	// response is encoded before the handler returns and n.mu is released.
	out := n.encode(lane, &n.batch)
	n.batch.Results = nil
	return out, nil
}
