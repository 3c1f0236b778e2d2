package rpc

import (
	"errors"
	"fmt"
	"sync"

	"cachecost/internal/meter"
	"cachecost/internal/trace"
)

// ErrRetryBudgetExhausted wraps the last transport error when the retry
// budget denied further attempts.
var ErrRetryBudgetExhausted = errors.New("rpc: retry budget exhausted")

// The retry policy every RetryConn runs.
const (
	// maxAttempts is the total number of tries per call, the first
	// included.
	maxAttempts = 3
	// budgetRatio and budgetBurst are the classic retry-budget scheme
	// (gRPC, Finagle): each call earns budgetRatio retry tokens, each
	// retry spends one, and the bucket holds at most budgetBurst, so
	// retries amplify offered load by at most 1+budgetRatio during a
	// full outage.
	budgetRatio = 0.1
	budgetBurst = 10
	// retryWork is the metered CPU charged per retry (re-marshal,
	// re-send bookkeeping, timer churn).
	retryWork = 1024
)

// defaultRetryable retries transport-level failures and refuses to retry
// application-level outcomes: a *RemoteError is the server speaking (the
// call was delivered), and ErrNoSuchMethod will not improve with retries.
func defaultRetryable(err error) bool {
	var re *RemoteError
	if errors.As(err, &re) {
		return false
	}
	return !errors.Is(err, ErrNoSuchMethod)
}

// RetryConn wraps a Conn with budgeted retries — the client-side
// robustness layer production cache and database drivers carry, whose CPU
// the paper's availability discussion counts as part of the cache tier's
// true cost. A retry is issued at once: the lab prices a retry's work,
// not a backoff's wait. It is safe for concurrent use.
type RetryConn struct {
	next   Conn
	comp   *meter.Component // retry-overhead attribution; may be nil
	burner *meter.Burner

	mu     sync.Mutex
	budget float64
}

// NewRetryConn wraps conn. comp (optional) is charged retryWork per retry
// on burner.
func NewRetryConn(conn Conn, comp *meter.Component, burner *meter.Burner) *RetryConn {
	// The token bucket starts full (as gRPC's retry throttle does), so a
	// fresh connection can absorb an initial fault burst up to budgetBurst
	// before the earn rate takes over.
	return &RetryConn{next: conn, comp: comp, burner: burner, budget: budgetBurst}
}

// Call implements Conn: the underlying call is attempted up to
// maxAttempts times, each retry spending a retry-budget token.
func (r *RetryConn) Call(method string, req []byte) ([]byte, error) {
	return r.CallCtx(trace.SpanContext{}, method, req)
}

// CallCtx implements TraceConn: every attempt propagates the caller's
// span context, so retried hops appear as repeated rpc spans under the
// same parent. Each retry is counted on the request's lane and its work
// burned there.
func (r *RetryConn) CallCtx(sc trace.SpanContext, method string, req []byte) ([]byte, error) {
	r.mu.Lock()
	r.budget = min(r.budget+budgetRatio, budgetBurst)
	r.mu.Unlock()

	for attempt := 1; ; attempt++ {
		resp, err := CallTraced(r.next, sc, method, req)
		if err == nil {
			return resp, nil
		}
		if !defaultRetryable(err) || attempt >= maxAttempts {
			return nil, err
		}
		r.mu.Lock()
		granted := r.budget >= 1
		if granted {
			r.budget--
		}
		r.mu.Unlock()
		if !granted {
			return nil, fmt.Errorf("%w after %d attempts: %w", ErrRetryBudgetExhausted, attempt, err)
		}
		sc.Lane().CountRetry()
		sc.Lane().Burn(r.comp, r.burner, retryWork)
	}
}

// Close implements Conn.
func (r *RetryConn) Close() error { return r.next.Close() }
