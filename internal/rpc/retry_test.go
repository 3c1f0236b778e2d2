package rpc

import (
	"errors"
	"testing"

	"cachecost/internal/meter"
	"cachecost/internal/trace"
)

var errFlaky = errors.New("transient transport failure")

// flakyConn fails the first failN calls, then succeeds.
func flakyConn(failN int) (Conn, *int) {
	calls := new(int)
	return connFunc(func(method string, req []byte) ([]byte, error) {
		*calls++
		if *calls <= failN {
			return nil, errFlaky
		}
		return append([]byte("ok:"), req...), nil
	}), calls
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	conn, calls := flakyConn(2)
	rc := NewRetryConn(conn, nil, nil)
	resp, err := rc.Call("m", []byte("x"))
	if err != nil {
		t.Fatalf("call failed despite retries: %v", err)
	}
	if string(resp) != "ok:x" {
		t.Fatalf("resp = %q", resp)
	}
	if *calls != 3 {
		t.Fatalf("underlying calls = %d, want 3", *calls)
	}
}

func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	conn, calls := flakyConn(1 << 30)
	rc := NewRetryConn(conn, nil, nil)
	_, err := rc.Call("m", nil)
	if !errors.Is(err, errFlaky) || errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("err = %v, want the bare transport error", err)
	}
	if *calls != maxAttempts {
		t.Fatalf("underlying calls = %d, want %d", *calls, maxAttempts)
	}
}

func TestRetryDoesNotRetryApplicationErrors(t *testing.T) {
	calls := 0
	conn := connFunc(func(method string, req []byte) ([]byte, error) {
		calls++
		return nil, &RemoteError{Method: method, Msg: "no such key"}
	})
	rc := NewRetryConn(conn, nil, nil)
	_, err := rc.Call("m", nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RemoteError", err)
	}
	if calls != 1 {
		t.Fatalf("application error was retried: %d calls", calls)
	}
}

// TestRetryBudgetLimitsAmplification holds a dead connection's retries
// to the token bucket: it starts full (budgetBurst), each call earns
// budgetRatio, each retry spends one, and a call denied a token fails
// with ErrRetryBudgetExhausted after its first attempt.
func TestRetryBudgetLimitsAmplification(t *testing.T) {
	conn, calls := flakyConn(1 << 30)
	rc := NewRetryConn(conn, nil, nil)
	// 10 → 8, 8.1 → 6.1, 6.2 → 4.2, 4.3 → 2.3, 2.4 → 0.4: five calls
	// retry in full.
	for i := 0; i < 5; i++ {
		if _, err := rc.Call("m", nil); errors.Is(err, ErrRetryBudgetExhausted) {
			t.Fatalf("call %d denied with tokens banked: %v", i, err)
		}
	}
	// From here each call earns 0.1 and is denied its first retry.
	for i := 0; i < 5; i++ {
		if _, err := rc.Call("m", nil); !errors.Is(err, ErrRetryBudgetExhausted) || !errors.Is(err, errFlaky) {
			t.Fatalf("call %d err = %v, want the budget denial wrapping the transport error", i, err)
		}
	}
	// Amplification: 10 calls, 20 retries (the burst's worth), no more.
	if *calls != 10+10 {
		t.Fatalf("underlying calls = %d, want 20 (10 calls + 10 granted retries)", *calls)
	}
}

// TestRetryWorkIsMeteredAndCounted checks that each retry burns its work
// on the request's lane and is counted there, once, as Path.Retries.
func TestRetryWorkIsMeteredAndCounted(t *testing.T) {
	m := meter.NewMeter()
	app := m.Component("app")
	comp := m.Component("app.retry")
	conn, _ := flakyConn(2)
	rc := NewRetryConn(conn, comp, meter.NewBurner())
	l := meter.OpenLane(app)
	if _, err := rc.CallCtx(trace.SpanContext{}.WithLane(l), "m", nil); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if comp.Busy() <= 0 || comp.Ops() != 2 {
		t.Fatalf("retry work: busy=%v ops=%d, want busy > 0 and 2 ops", comp.Busy(), comp.Ops())
	}
	if got := m.Path().Retries; got != 2 {
		t.Fatalf("Path.Retries = %d, want 2", got)
	}
}
