package rpc

import (
	"net"
	"sync/atomic"

	"cachecost/internal/freelist"
	"cachecost/internal/meter"
	"cachecost/internal/trace"
)

// loopbackBufPool recycles the request "wire" buffers Loopback copies
// into; one that grew past maxKeptBuffer is dropped, not kept.
var loopbackBufPool freelist.List[[]byte]

// Loopback is an in-process Conn bound directly to a Server. It preserves
// the cost semantics of a real network hop — the request and response are
// copied (no sharing of buffers across the "wire"), both endpoints are
// charged per-message and per-byte transport overhead — while keeping
// experiment runs deterministic and single-process.
type Loopback struct {
	server  *Server
	comp    *meter.Component // caller-side attribution; may be nil
	burner  *meter.Burner
	cost    CostModel
	metrics *Metrics // per-message telemetry; may be nil
	closed  atomic.Bool
}

// NewLoopback returns a Conn that dispatches directly into server,
// charging the caller's overhead to comp.
func NewLoopback(server *Server, comp *meter.Component, burner *meter.Burner, cost CostModel) *Loopback {
	return &Loopback{server: server, comp: comp, burner: burner, cost: cost}
}

// SetMetrics binds per-message telemetry. Call before the connection is
// used; it is not synchronized against Call.
func (l *Loopback) SetMetrics(m *Metrics) { l.metrics = m }

// Call implements Conn.
func (l *Loopback) Call(method string, req []byte) ([]byte, error) {
	return l.call(trace.SpanContext{}, method, req)
}

// CallCtx implements TraceConn: the hop is counted on the request's lane
// and, when sampled, recorded as an "rpc" span (annotated
// rpc.hop=loopback), and the span context flows into the server's
// dispatch.
func (l *Loopback) CallCtx(sc trace.SpanContext, method string, req []byte) ([]byte, error) {
	sc.Lane().CountHop()
	if !sc.Sampled() {
		return l.call(sc, method, req)
	}
	act, down := trace.Start(sc, "rpc", method)
	act.Annotate("rpc.hop", "loopback")
	resp, err := l.call(down, method, req)
	act.SetBytes(len(req), len(resp))
	act.End()
	return resp, err
}

func (l *Loopback) call(sc trace.SpanContext, method string, req []byte) ([]byte, error) {
	if l.closed.Load() {
		return nil, net.ErrClosed
	}
	start := l.metrics.begin()
	l.cost.Charge(sc.Lane(), l.comp, l.burner, len(req))
	// Both messages are copied across the "wire", exactly as a socket
	// would; which side owns which buffer, and until when, is DESIGN.md's
	// "Buffer ownership" table.
	wireReq := append(loopbackBufPool.Get()[:0], req...)
	resp, err := l.server.DispatchCtx(sc, method, wireReq)
	if err != nil {
		loopbackBufPool.Put(keep(wireReq))
		l.metrics.end(start, len(req), 0, err)
		return nil, err
	}
	// resp may alias wireReq (an echo-style handler): copy it out before
	// either is released.
	wireResp := append(GetBuffer(), resp...)
	l.server.recycle(resp, wireReq)
	loopbackBufPool.Put(keep(wireReq))
	l.cost.Charge(sc.Lane(), l.comp, l.burner, len(wireResp))
	l.metrics.end(start, len(req), len(wireResp), nil)
	return wireResp, nil
}

// Close implements Conn.
func (l *Loopback) Close() error {
	l.closed.Store(true)
	return nil
}

// Direct is a Conn that invokes a server with no transport cost and no
// copying. It models a linked (in-process) component: the callee's handler
// CPU is still metered, but there is no hop to pay for. Used where an
// architecture links a cache or library into the application process.
type Direct struct {
	server *Server
}

// NewDirect returns a zero-overhead in-process Conn.
func NewDirect(server *Server) *Direct { return &Direct{server: server} }

// Call implements Conn.
func (d *Direct) Call(method string, req []byte) ([]byte, error) {
	return d.server.Dispatch(method, req)
}

// CallCtx implements TraceConn. A Direct call is not a network hop, so no
// hop span is recorded and no hop is counted — the Linked architectures'
// zero-hop invariant rests on this — but the context still flows so the
// callee's own spans attach to the caller's trace.
func (d *Direct) CallCtx(sc trace.SpanContext, method string, req []byte) ([]byte, error) {
	return d.server.DispatchCtx(sc, method, req)
}

// Close implements Conn.
func (d *Direct) Close() error { return nil }
