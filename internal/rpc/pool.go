package rpc

import (
	"errors"
	"sync"
	"sync/atomic"

	"cachecost/internal/meter"
	"cachecost/internal/trace"
)

// Pool is a Conn backed by several TCP connections to the same server,
// with calls spread round-robin. One multiplexed connection serializes
// frame writes through a single socket; an application server pushing
// tens of thousands of requests per second uses a small pool, exactly as
// production gRPC channels and database drivers do.
//
// The checkout path is contention-free: the connection slice is published
// through an atomic pointer and never mutated in place, so Call reads a
// consistent snapshot without touching a mutex. The mutex exists only to
// serialize Close.
type Pool struct {
	conns  atomic.Pointer[[]Conn]
	next   atomic.Uint64
	closed atomic.Bool

	mu sync.Mutex // serializes Close
}

// DialPool opens n connections to addr. Overhead attribution follows the
// same rules as Dial. n < 1 is treated as 1. On error, any connections
// already opened are closed.
func DialPool(addr string, n int, comp *meter.Component, burner *meter.Burner, cost CostModel) (*Pool, error) {
	if n < 1 {
		n = 1
	}
	conns := make([]Conn, 0, n)
	for i := 0; i < n; i++ {
		c, err := Dial(addr, comp, burner, cost)
		if err != nil {
			for _, open := range conns {
				open.Close()
			}
			return nil, err
		}
		conns = append(conns, c)
	}
	return NewPool(conns...), nil
}

// NewPool wraps pre-established connections (tests, mixed transports).
func NewPool(conns ...Conn) *Pool {
	p := &Pool{}
	p.conns.Store(&conns)
	return p
}

// SetMetrics binds per-message telemetry on every pooled connection
// that supports it. Call before the pool takes traffic.
func (p *Pool) SetMetrics(m *Metrics) {
	cp := p.conns.Load()
	if cp == nil {
		return
	}
	for _, c := range *cp {
		if mc, ok := c.(interface{ SetMetrics(*Metrics) }); ok {
			mc.SetMetrics(m)
		}
	}
}

// snapshot returns the live connection slice, or nil if the pool is
// closed or empty.
func (p *Pool) snapshot() []Conn {
	if p.closed.Load() {
		return nil
	}
	cp := p.conns.Load()
	if cp == nil || len(*cp) == 0 {
		return nil
	}
	return *cp
}

// callFrom attempts the call starting at index start, failing over across
// the snapshot: a connection that fails at the transport level is skipped
// while others remain; only application-level errors (*RemoteError) are
// returned without failover. conns is never empty.
func callFrom(conns []Conn, start uint64, sc trace.SpanContext, method string, req []byte) ([]byte, error) {
	var firstErr error
	for i := 0; i < len(conns); i++ {
		conn := conns[(start+uint64(i))%uint64(len(conns))]
		resp, err := CallTraced(conn, sc, method, req)
		if err == nil {
			return resp, nil
		}
		var re *RemoteError
		if errors.As(err, &re) {
			// The server answered: this is the call's outcome, not a
			// connection-health signal.
			return nil, err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, firstErr
}

// Call implements Conn, picking the next connection round-robin.
func (p *Pool) Call(method string, req []byte) ([]byte, error) {
	return p.CallCtx(trace.SpanContext{}, method, req)
}

// CallCtx implements TraceConn, propagating the span context to the
// checked-out connection.
func (p *Pool) CallCtx(sc trace.SpanContext, method string, req []byte) ([]byte, error) {
	conns := p.snapshot()
	if conns == nil {
		return nil, ErrPoolClosed
	}
	return callFrom(conns, p.next.Add(1), sc, method, req)
}

// Close implements Conn, closing every pooled connection and returning
// the first error.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed.Store(true)
	cp := p.conns.Swap(nil)
	var first error
	if cp != nil {
		for _, c := range *cp {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// ErrPoolClosed is returned by calls on a closed or empty pool.
var ErrPoolClosed = poolClosedError{}

type poolClosedError struct{}

func (poolClosedError) Error() string { return "rpc: connection pool is closed" }
