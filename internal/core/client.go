package core

import (
	"fmt"
	"time"

	"cachecost/internal/remotecache"
	"cachecost/internal/rpc"
	"cachecost/internal/trace"
	"cachecost/internal/wire"
)

// AppClient is the client side of the app front door — app.Read,
// app.Write, app.ReadBatch, app.WriteBatch — over any connection, and the
// only place this repository encodes those requests. In process it reaches
// a lane's front door through rpc.NewDirect, which charges nothing: the
// driver plays the client, and the paper prices the service, not its
// callers. Over sockets (cmd/loadgen, the root TCP tests) it wraps an
// rpc.Client. Every request opens its root span from the given tracer
// (nil traces nothing), so the trace covers the whole client-visible
// request and concurrent clients never share spans.
//
// An AppClient is one driver lane's worker: ServiceWorker, DeadlineWorker,
// IntendedWorker and BatchServiceWorker. Use it from one goroutine at a
// time; any number of clients may share one connection.
type AppClient struct {
	conn   rpc.TraceConn
	tracer *trace.Tracer
	// intendedNS is the next operation's intended arrival instant (unix
	// nanoseconds), set by the open-loop driver via SetIntended before
	// each op. Zero (closed loop) leaves the flight recorder's queue stage
	// at zero.
	intendedNS int64
}

// NewAppClient returns a client issuing front-door requests over conn,
// opening each request's root span from tracer.
func NewAppClient(conn rpc.TraceConn, tracer *trace.Tracer) *AppClient {
	return &AppClient{conn: conn, tracer: tracer}
}

// SetIntended records the next operation's intended arrival instant (the
// open-loop schedule slot). The flight recorder measures queue wait —
// schedule slip before the handler started — and intended-clock latency
// from it. The zero time clears it.
func (c *AppClient) SetIntended(t time.Time) {
	c.intendedNS = 0
	if !t.IsZero() {
		c.intendedNS = t.UnixNano()
	}
}

// call issues one front-door request as one root span: enc writes the
// request into a pooled encoder, dec (when non-nil) reads the response
// before its buffer cycles back to the transport pool. A non-zero deadline
// rides the span context to the service's front door.
func (c *AppClient) call(op, method string, deadline time.Time, enc func(*wire.Encoder), dec func(resp []byte) error) error {
	sc, act := c.tracer.StartRequest(op)
	if c.intendedNS != 0 {
		sc = sc.WithIntendedUnixNano(c.intendedNS)
	}
	if !deadline.IsZero() {
		sc = sc.WithDeadline(deadline)
	}
	e := wire.GetEncoder()
	enc(e)
	resp, err := c.conn.CallCtx(sc, method, e.Bytes())
	wire.PutEncoder(e)
	if err == nil && dec != nil {
		err = dec(resp)
	}
	rpc.PutBuffer(resp)
	act.End()
	return err
}

// Read returns the application's digest of key's value.
func (c *AppClient) Read(key string) ([]byte, error) { return c.ReadDeadline(key, time.Time{}) }

// Write stores value under key.
func (c *AppClient) Write(key string, value []byte) error {
	return c.WriteDeadline(key, value, time.Time{})
}

// ReadDeadline is Read with an SLO deadline (GetRequest {1: key} in,
// GetResponse {1: found, 2: digest} out).
func (c *AppClient) ReadDeadline(key string, deadline time.Time) (v []byte, err error) {
	err = c.call("read", "app.Read", deadline, func(e *wire.Encoder) { e.String(1, key) }, func(resp []byte) error {
		b, err := fieldBytes(resp, 2)
		v = append([]byte(nil), b...)
		return err
	})
	return v, err
}

// WriteDeadline is Write with an SLO deadline (SetRequest {1: key,
// 2: value} in, Ack out).
func (c *AppClient) WriteDeadline(key string, value []byte, deadline time.Time) error {
	return c.call("write", "app.Write", deadline, func(e *wire.Encoder) {
		e.String(1, key)
		e.BytesField(2, value)
	}, nil)
}

// ReadBatch is one multi-key read: one frame, one root span, one digest
// per key, positionally.
func (c *AppClient) ReadBatch(keys []string) (vs [][]byte, err error) {
	if len(keys) == 0 {
		return nil, nil
	}
	err = c.call("read", "app.ReadBatch", time.Time{}, func(e *wire.Encoder) { e.StringSlice(1, keys) }, func(resp []byte) error {
		var r remotecache.MultiGetResponse
		if err := wire.Unmarshal(resp, &r); err != nil {
			return err
		}
		if len(r.Values) != len(keys) {
			return fmt.Errorf("core: ReadBatch returned %d digests for %d keys", len(r.Values), len(keys))
		}
		vs = r.Values
		return nil
	})
	return vs, err
}

// WriteBatch is one multi-key write (MultiSetRequest {1: key...,
// 2: value...}).
func (c *AppClient) WriteBatch(keys []string, values [][]byte) error {
	if len(keys) == 0 {
		return nil
	}
	return c.call("write", "app.WriteBatch", time.Time{}, func(e *wire.Encoder) {
		e.StringSlice(1, keys)
		e.BytesSlice(2, values)
	}, nil)
}
