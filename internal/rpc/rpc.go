// Package rpc is the remote-procedure-call substrate for the cachecost
// laboratory. It plays the role gRPC plays in the paper's testbed (§5.1):
// every hop between application servers, remote caches and storage nodes
// pays framing, copying and dispatch CPU here.
//
// Two transports are provided. The TCP transport runs components as real
// networked processes (see cmd/). The loopback transport runs them in one
// process with identical framing and copying semantics, plus a calibrated
// CPU burn standing in for the kernel network stack — giving deterministic,
// fast experiment runs with the same relative cost shape.
//
// RetryConn is the one retry layer: a fixed policy (three attempts, a
// 10 % retry budget) with no backoff wait, because the lab prices what a
// retry costs, not how long it waits. Each retry burns its work and is
// counted on the request's lane (meter.PathStats.Retries).
package rpc

import (
	"errors"
	"fmt"

	"cachecost/internal/meter"
	"cachecost/internal/trace"
)

// Conn issues calls against a remote server. Implementations must be safe
// for concurrent use.
type Conn interface {
	// Call sends req to the named method and returns the response body.
	// The returned slice is owned by the caller.
	Call(method string, req []byte) ([]byte, error)
	// Close releases the connection's resources.
	Close() error
}

// TraceConn is implemented by connections that can propagate a span
// context to the callee. All of this package's transports implement it;
// wrappers (retry, pool, fault) pass the context through.
type TraceConn interface {
	Conn
	// CallCtx is Call carrying the caller's span context.
	CallCtx(sc trace.SpanContext, method string, req []byte) ([]byte, error)
}

// CallTraced issues a call with span-context propagation when the
// context carries anything worth propagating — a sampled trace, a
// deadline or the request's lane — and the connection supports it,
// falling back to the context-free path otherwise. Instrumented layers
// route every call through this helper.
func CallTraced(conn Conn, sc trace.SpanContext, method string, req []byte) ([]byte, error) {
	if sc.Sampled() || sc.HasDeadline() || sc.Lane() != nil {
		if tc, ok := conn.(TraceConn); ok {
			return tc.CallCtx(sc, method, req)
		}
	}
	return conn.Call(method, req)
}

// HandlerFunc processes one request body and returns a response body.
// The request slice is only valid for the duration of the call.
type HandlerFunc func(req []byte) ([]byte, error)

// HandlerCtxFunc is a handler that also receives the caller's span
// context, so it can open child spans and walk and count on the request's
// lane. The context is the zero value when the request arrived untraced
// on an unmetered server.
type HandlerCtxFunc func(sc trace.SpanContext, req []byte) ([]byte, error)

// ErrNoSuchMethod is returned to callers of unregistered methods.
var ErrNoSuchMethod = errors.New("rpc: no such method")

// RemoteError wraps an error string returned by a server so callers can
// distinguish transport failures from application failures.
type RemoteError struct {
	Method string
	Msg    string
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote error from %s: %s", e.Method, e.Msg)
}

// CostModel charges the CPU overhead of moving one message through a
// transport endpoint: a fixed per-message cost (syscalls, interrupt and
// dispatch work) plus a per-byte cost (copies through the kernel and NIC
// ring). Units are Burner work units (≈ one unit per byte processed).
//
// The defaults are calibrated so that, as in the paper's profile of
// production clusters, RPC communication is a visible but not dominant
// fraction of request cost at small values and the per-byte term dominates
// at large values.
type CostModel struct {
	PerMessage int
	PerByte    float64
}

// DefaultCost is the calibration used by all experiments.
var DefaultCost = CostModel{PerMessage: 4096, PerByte: 0.5}

// Charge burns CPU for one message of n payload bytes as one operation of
// component c: a lap of the request's lane l, or c's own stopwatch when
// the caller has no request context (l == nil). A zero model, a nil c or
// a nil b charges nothing.
func (m CostModel) Charge(l *meter.Lane, c *meter.Component, b *meter.Burner, n int) {
	if b != nil && (m.PerMessage != 0 || m.PerByte != 0) {
		l.Burn(c, b, m.PerMessage+int(m.PerByte*float64(n)))
	}
}
