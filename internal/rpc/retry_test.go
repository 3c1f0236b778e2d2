package rpc

import (
	"errors"
	"testing"
	"time"

	"cachecost/internal/meter"
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
	rc := NewRetryConn(conn, RetryPolicy{}, 1, nil, nil)
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
	st := rc.stats
	if st.Calls != 1 || st.Attempts != 3 || st.Retries != 2 || st.Failures != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BackoffTotal <= 0 {
		t.Fatal("backoff sequence should be computed even without sleeping")
	}
}

func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	conn, calls := flakyConn(1 << 30)
	rc := NewRetryConn(conn, RetryPolicy{MaxAttempts: 3, BudgetBurst: 100, BudgetRatio: 100}, 1, nil, nil)
	_, err := rc.Call("m", nil)
	if !errors.Is(err, errFlaky) {
		t.Fatalf("err = %v, want the transport error", err)
	}
	if *calls != 3 {
		t.Fatalf("underlying calls = %d, want 3", *calls)
	}
	if st := rc.stats; st.Failures != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetryDoesNotRetryApplicationErrors(t *testing.T) {
	calls := 0
	conn := connFunc(func(method string, req []byte) ([]byte, error) {
		calls++
		return nil, &RemoteError{Method: method, Msg: "no such key"}
	})
	rc := NewRetryConn(conn, RetryPolicy{}, 1, nil, nil)
	_, err := rc.Call("m", nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RemoteError", err)
	}
	if calls != 1 {
		t.Fatalf("application error was retried: %d calls", calls)
	}
}

func TestRetryBudgetLimitsAmplification(t *testing.T) {
	conn, _ := flakyConn(1 << 30)
	// Tiny budget: one banked token, negligible earn rate.
	rc := NewRetryConn(conn, RetryPolicy{BudgetRatio: 1e-9, BudgetBurst: 1}, 1, nil, nil)
	// First call spends the banked token on its first retry, then is
	// denied its second.
	if _, err := rc.Call("m", nil); !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("first call err = %v", err)
	}
	// Subsequent calls have no tokens at all.
	for i := 0; i < 5; i++ {
		if _, err := rc.Call("m", nil); !errors.Is(err, ErrRetryBudgetExhausted) {
			t.Fatalf("call %d err = %v", i, err)
		}
	}
	st := rc.stats
	if st.Retries != 1 {
		t.Fatalf("retries = %d, want exactly the banked token's worth (1)", st.Retries)
	}
	if st.BudgetDenied != 6 {
		t.Fatalf("budget denials = %d, want 6 (one on the first call, one per later call)", st.BudgetDenied)
	}
	// Amplification check: 6 calls produced at most 6+burst attempts.
	if st.Attempts > st.Calls+1 {
		t.Fatalf("attempts %d exceed calls %d + burst 1", st.Attempts, st.Calls)
	}
}

func TestRetryDeadlineStopsRetrying(t *testing.T) {
	conn, _ := flakyConn(1 << 30)
	slept := time.Duration(0)
	rc := NewRetryConn(conn, RetryPolicy{
		MaxAttempts: 10,
		Deadline:    time.Nanosecond, // expires before any retry
		BudgetBurst: 100, BudgetRatio: 100,
		Sleep: func(d time.Duration) { slept += d },
	}, 1, nil, nil)
	_, err := rc.Call("m", nil)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if slept != 0 {
		t.Fatalf("slept %v after deadline", slept)
	}
	if st := rc.stats; st.DeadlineExceeded != 1 || st.Attempts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetryBackoffGrowsAndJitterIsDeterministic(t *testing.T) {
	run := func() []time.Duration {
		conn, _ := flakyConn(1 << 30)
		var delays []time.Duration
		rc := NewRetryConn(conn, RetryPolicy{
			MaxAttempts: 6,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  8 * time.Millisecond,
			BudgetBurst: 100, BudgetRatio: 100,
			Sleep: func(d time.Duration) { delays = append(delays, d) },
		}, 42, nil, nil)
		rc.Call("m", nil)
		return delays
	}
	d1, d2 := run(), run()
	if len(d1) != 5 {
		t.Fatalf("delays = %v, want 5 retries", d1)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("jitter diverged under fixed seed: %v vs %v", d1, d2)
		}
		// Jitter keeps each delay within [0.5, 1) of the pre-jitter value.
		pre := time.Millisecond << i
		if pre > 8*time.Millisecond {
			pre = 8 * time.Millisecond
		}
		if d1[i] < pre/2 || d1[i] >= pre {
			t.Fatalf("delay %d = %v outside [%v, %v)", i, d1[i], pre/2, pre)
		}
	}
	// Exponential growth until the cap: delay i+1 exceeds delay i's
	// pre-jitter floor doubling would allow only in expectation, so just
	// check the deterministic pre-jitter envelope grew (delays not all
	// equal before the cap region).
	if !(d1[1] > d1[0]/2) {
		t.Fatalf("backoff did not grow: %v", d1)
	}
}

func TestRetryWorkIsMeteredAndCounted(t *testing.T) {
	m := meter.NewMeter()
	comp := m.Component("app")
	counter := m.Counter("rpc.retries")
	conn, _ := flakyConn(2)
	rc := NewRetryConn(conn, RetryPolicy{RetryWork: 20000, RetryCounter: counter, BudgetBurst: 100, BudgetRatio: 100}, 1, comp, meter.NewBurner())
	if _, err := rc.Call("m", nil); err != nil {
		t.Fatal(err)
	}
	if comp.Busy() <= 0 {
		t.Fatal("retry work should accrue busy time")
	}
	if got := m.CounterValue("rpc.retries"); got != 2 {
		t.Fatalf("retry counter = %d, want 2", got)
	}
}
