package remotecache

import (
	"cachecost/internal/meter"
	"cachecost/internal/rpc"
	"cachecost/internal/telemetry"
	"cachecost/internal/trace"
	"cachecost/internal/wire"
)

// Client is the application's lookaside cache client (§2.4, Figure 1b).
// It has one of two topologies: it talks to a single cache node
// (NewSingleClient), or it routes each key through a shared
// cluster.ShardMap over several nodes (NewRoutedClient). It is safe for
// concurrent use once constructed.
//
// The client degrades gracefully, as production lookaside clients do —
// the cache is an optimization, not a dependency: every cache failure is
// demoted to a miss (Get) or a no-op (Set/Delete) and counted once, on
// the request's lane, as a degradation. The paper's availability argument
// (§5) assumes exactly this behaviour: the service must keep serving
// through cache loss, and the degraded window's cost shows up as extra
// storage load.
type Client struct {
	// conns holds the cache nodes' connections: the one node's, or, when
	// router is set, one per shard-map node in ShardMap.Nodes order.
	conns []rpc.Conn

	// router, when set (NewRoutedClient), routes every key through the
	// shard map: replica fan-out, P2C reads, handoff double-reads.
	router *router
}

// NewSingleClient builds a client over one cache node.
func NewSingleClient(conn rpc.Conn) *Client {
	return &Client{conns: []rpc.Conn{conn}}
}

// SetTelemetry binds a routed client's fan-out and handoff counters.
// Call before the client takes traffic; it is not synchronized against
// Get/Set/Delete.
func (c *Client) SetTelemetry(reg *telemetry.Registry) {
	if c.router != nil {
		c.router.tmFanout = reg.Counter("cache.client.fanout_writes")
		c.router.tmHandoff = reg.Counter("cache.client.handoff_reads")
	}
}

// demote absorbs a cache failure: it counts one demotion on the lane,
// which marks the request degraded, and returns nil.
func demote(l *meter.Lane, err error) error {
	if err != nil {
		l.CountDegraded()
	}
	return nil
}

// Get fetches key, reporting presence. A cache failure reads as a miss.
// The value is the caller's to keep: it is copied out of the response
// buffer, which is recycled here.
func (c *Client) Get(key string) ([]byte, bool, error) {
	v, held, found, err := c.BorrowCtx(trace.SpanContext{}, key)
	if found {
		v = append([]byte(nil), v...)
	}
	rpc.PutBuffer(held)
	return v, found, err
}

// BorrowCtx is Get, under the caller's span context, without the copy:
// on a hit the value aliases held, the transport buffer the response
// arrived in. The caller hands held to rpc.PutBuffer when it is done
// reading the value and must not touch the value afterwards (DESIGN.md,
// "Buffer ownership"); held is nil unless found.
//
// The lookup's outcome (including a demotion, which reads as a miss) is
// counted on the request's lane as a cache hit or miss, as are the cache
// RPC's two protocol messages. On a lane a flight recorder armed, the
// client-observed round trip lands in StageCache.
func (c *Client) BorrowCtx(sc trace.SpanContext, key string) (value, held []byte, found bool, err error) {
	t0 := sc.Lane().StageClock()
	value, held, found, err = c.get(sc, key)
	sc.Lane().AddStage(meter.StageCache, t0)
	demote(sc.Lane(), err)
	sc.Lane().CountCacheHit(found)
	return value, held, found, nil
}

// get is the lookup behind BorrowCtx, with its contract: value aliases
// held, and both are nil unless found.
func (c *Client) get(sc trace.SpanContext, key string) (value, held []byte, found bool, err error) {
	if c.router != nil {
		return c.routedGet(sc, key)
	}
	return getOn(sc, c.conns[0], key)
}

// getOn is one cache.Get round trip on conn. The request is the
// GetRequest shape {1: key} from a pooled encoder; the response's
// GetResponse shape {1: found, 2: value} is read in place, so a hit's
// value aliases the response buffer, returned as held. A miss or an
// error recycles the buffer here.
func getOn(sc trace.SpanContext, conn rpc.Conn, key string) (value, held []byte, found bool, err error) {
	e := wire.GetEncoder()
	e.String(1, key)
	held, err = rpc.CallTraced(conn, sc, "cache.Get", e.Bytes())
	wire.PutEncoder(e)
	if err != nil {
		return nil, nil, false, err
	}
	sc.Lane().CountCacheMsgs(2)
	err = wire.Decode(held, func(d *wire.Decoder) error {
		return decodeFields(d, func(f uint32, t wire.Type) (err error) {
			switch f {
			case 1:
				found, err = d.Bool()
			case 2:
				value, err = d.Bytes()
			default:
				err = d.Skip(t)
			}
			return err
		})
	})
	if err != nil || !found {
		rpc.PutBuffer(held)
		return nil, nil, false, err
	}
	return value, held, true, nil
}

// Set stores key.
func (c *Client) Set(key string, value []byte) error {
	return c.SetCtx(trace.SpanContext{}, key, value)
}

// SetCtx stores key under the caller's span context. A cache failure is a
// counted no-op: the next read re-populates.
func (c *Client) SetCtx(sc trace.SpanContext, key string, value []byte) error {
	t0 := sc.Lane().StageClock()
	err := c.set(sc, key, value)
	sc.Lane().AddStage(meter.StageCache, t0)
	return demote(sc.Lane(), err)
}

func (c *Client) set(sc trace.SpanContext, key string, value []byte) error {
	if c.router != nil {
		return c.routedSet(sc, key, value)
	}
	return setOn(sc, c.conns[0], key, value)
}

// setOn is one cache.Set round trip on conn: the SetRequest shape
// {1: key, 2: value} out, an Ack back.
func setOn(sc trace.SpanContext, conn rpc.Conn, key string, value []byte) error {
	e := wire.GetEncoder()
	e.String(1, key)
	e.BytesField(2, value)
	return callAck(sc, conn, "cache.Set", e, new(Ack))
}

// callAck sends e's bytes to method, recycles e, and decodes the reply
// into ack — an Ack, or a batch's MultiAck — recycling its buffer too.
func callAck(sc trace.SpanContext, conn rpc.Conn, method string, e *wire.Encoder, ack wire.Unmarshaler) error {
	respBody, err := rpc.CallTraced(conn, sc, method, e.Bytes())
	wire.PutEncoder(e)
	if err != nil {
		return err
	}
	sc.Lane().CountCacheMsgs(2)
	err = wire.Unmarshal(respBody, ack)
	rpc.PutBuffer(respBody)
	return err
}

// Delete removes key, reporting whether it existed. A cache failure
// reports "did not exist" — the entry may survive until its node
// recovers, the bounded-staleness price of lookaside invalidation.
func (c *Client) Delete(key string) (bool, error) {
	return c.DeleteCtx(trace.SpanContext{}, key)
}

// DeleteCtx is Delete carrying the caller's span context.
func (c *Client) DeleteCtx(sc trace.SpanContext, key string) (bool, error) {
	t0 := sc.Lane().StageClock()
	ok, err := c.delete(sc, key)
	sc.Lane().AddStage(meter.StageCache, t0)
	if err != nil {
		return false, demote(sc.Lane(), err)
	}
	return ok, nil
}

func (c *Client) delete(sc trace.SpanContext, key string) (bool, error) {
	if c.router != nil {
		return c.routedDelete(sc, key)
	}
	return deleteOn(sc, c.conns[0], key)
}

// deleteOn is one cache.Delete round trip on conn: the request {1: key}
// out, an Ack (existed) back.
func deleteOn(sc trace.SpanContext, conn rpc.Conn, key string) (bool, error) {
	e := wire.GetEncoder()
	e.String(1, key)
	var ack Ack
	err := callAck(sc, conn, "cache.Delete", e, &ack)
	return ack.OK, err
}
