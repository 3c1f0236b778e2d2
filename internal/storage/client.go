package storage

import (
	"cachecost/internal/meter"
	"cachecost/internal/rpc"
	"cachecost/internal/storage/plan"
	"cachecost/internal/storage/sql"
	"cachecost/internal/trace"
	"cachecost/internal/wire"
)

// Client is a typed wrapper over an rpc.Conn to a database Node. It is the
// database driver the application servers use; the request/response
// (de)serialization it performs is application-side CPU, attributed to
// whatever component owns the Conn.
type Client struct {
	conn rpc.Conn
}

// NewClient wraps conn (TCP, loopback or direct) as a database client.
func NewClient(conn rpc.Conn) *Client { return &Client{conn: conn} }

// Query runs a SELECT with bound parameters.
func (c *Client) Query(src string, params ...sql.Value) (*plan.ResultSet, error) {
	return c.QueryCtx(trace.SpanContext{}, src, params...)
}

// QueryCtx is Query carrying the caller's span context through to the
// storage node. The ResultSet borrows the response: its column names,
// TEXTs and BLOBs alias the response buffer, and the set and buffer come
// from pools. The caller calls Release once it is done reading — or
// Detach, to keep reading values taken from it until it recycles the
// response itself. A caller that keeps a value past that copies it; one
// that never releases only gives up the reuse.
func (c *Client) QueryCtx(sc trace.SpanContext, src string, params ...sql.Value) (*plan.ResultSet, error) {
	defer sc.Lane().AddStage(meter.StageStorage, sc.Lane().StageClock())
	respBody, err := c.call(sc, "sql.Query", src, params)
	if err != nil {
		return nil, err
	}
	return plan.Borrow(respBody)
}

// Exec runs a write statement (INSERT, UPDATE or CREATE) with bound
// parameters, replicated through the storage node's raft group, and
// returns the number of rows it affected.
func (c *Client) Exec(src string, params ...sql.Value) (int64, error) {
	return c.ExecCtx(trace.SpanContext{}, src, params...)
}

// ExecCtx is Exec carrying the caller's span context. A write's result
// is its row count alone, read straight off the response.
func (c *Client) ExecCtx(sc trace.SpanContext, src string, params ...sql.Value) (int64, error) {
	defer sc.Lane().AddStage(meter.StageStorage, sc.Lane().StageClock())
	respBody, err := c.call(sc, "sql.Exec", src, params)
	if err != nil {
		return 0, err
	}
	n, err := plan.RowsAffected(respBody)
	rpc.PutBuffer(respBody)
	return n, err
}

// call encodes one statement and calls the node. Request and response
// buffers cycle through the transport pool: the caller decodes the
// response and recycles it.
//
// On a lane a flight recorder armed, the whole client-observed round trip
// — marshal, hop, server occupancy (injected stalls included), decode —
// lands in StageStorage: the callers time it.
func (c *Client) call(sc trace.SpanContext, method, src string, params []sql.Value) ([]byte, error) {
	// QueryRequest shape {1: sql, 2: param...}, encoded from the pool.
	e := wire.GetEncoder()
	e.String(1, src)
	for _, p := range params {
		sql.EncodeValue(e, 2, p)
	}
	respBody, err := rpc.CallTraced(c.conn, sc, method, e.Bytes())
	wire.PutEncoder(e)
	return respBody, err
}

// VersionCtx is Version carrying the caller's span context; its round
// trip is StageStorage time, like roundTrip's.
func (c *Client) VersionCtx(sc trace.SpanContext, table string, pk sql.Value) (uint64, bool, error) {
	defer sc.Lane().AddStage(meter.StageStorage, sc.Lane().StageClock())
	// VersionRequest shape {1: table, 2: pk}.
	e := wire.GetEncoder()
	e.String(1, table)
	sql.EncodeValue(e, 2, pk)
	respBody, err := rpc.CallTraced(c.conn, sc, "sql.Version", e.Bytes())
	wire.PutEncoder(e)
	if err != nil {
		return 0, false, err
	}
	var vr VersionResponse
	err = wire.Decode(respBody, vr.UnmarshalWire)
	rpc.PutBuffer(respBody)
	if err != nil {
		return 0, false, err
	}
	return vr.Version, vr.Found, nil
}

// Close releases the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }
