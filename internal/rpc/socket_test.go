package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cachecost/internal/meter"
	"cachecost/internal/telemetry"
)

// The tests in this file pin the socket transport's bookkeeping: call
// slots on the client, reused workers on the server, and a steady-state
// round trip that allocates nothing on either endpoint.

// trackingListener records the connections it accepts so a test can cut
// them from the server's side.
type trackingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

// cut hangs up every accepted connection.
func (l *trackingListener) cut() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
}

// serveTCP serves srv on a loopback port until the test ends.
func serveTCP(t *testing.T, srv *Server) *trackingListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tl := &trackingListener{Listener: ln}
	go srv.Serve(tl)
	t.Cleanup(func() { srv.Close() })
	return tl
}

// dialTCP opens an unmetered client to ln, closed when the test ends.
func dialTCP(t *testing.T, ln net.Listener) *Client {
	t.Helper()
	c, err := Dial(ln.Addr().String(), nil, nil, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// echoCall returns a call of method on c that checks the echo of payload
// and recycles the response.
func echoCall(t *testing.T, c Conn, method string, payload []byte) func() {
	return func() {
		resp, err := c.Call(method, payload)
		if err != nil || !bytes.Equal(resp, payload) {
			t.Fatalf("%s: %d bytes back, %v", method, len(resp), err)
		}
		PutBuffer(resp)
	}
}

// TestTCPRoundTripAllocs: once the call slot, the server worker, the
// inbound and every buffer exist, a 1 KB round trip over a real socket
// allocates nothing, client and server together.
func TestTCPRoundTripAllocs(t *testing.T) {
	if poisonReleased {
		t.Skip("allocation accounting differs under -race")
	}
	srv := NewServer(nil, nil, CostModel{})
	srv.SetPooledResponses(true)
	srv.Handle("echo", func(req []byte) ([]byte, error) { return append(GetBuffer(), req...), nil })
	c := dialTCP(t, serveTCP(t, srv))
	call := echoCall(t, c, "echo", bytes.Repeat([]byte("k"), 1<<10))
	if allocs := testing.AllocsPerRun(2000, call); allocs != 0 {
		t.Fatalf("tcp round trip allocates %.2f per call, want 0", allocs)
	}
}

// TestTCPCallOnDeadConnChargesNothing: once the read loop has seen the
// server hang up, a call never reaches the wire, so it bills the caller no
// transport CPU — and it is still counted, as one error.
func TestTCPCallOnDeadConnChargesNothing(t *testing.T) {
	srv, _ := newTestServer(t)
	ln := serveTCP(t, srv)
	m := meter.NewMeter()
	comp := m.Component("client")
	c, err := Dial(ln.Addr().String(), comp, meter.NewBurner(), DefaultCost)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reg := telemetry.NewRegistry()
	c.SetMetrics(NewMetrics(reg, "tcp"))
	if _, err := c.Call("echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
	ln.cut()
	waitFor(t, "the read loop to fail", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.err != nil
	})

	errs := reg.Counter("rpc.errors", telemetry.L("transport", "tcp"))
	busy, failed := comp.Busy(), errs.Value()
	if _, err := c.Call("echo", []byte("x")); err == nil {
		t.Fatal("a call on a dead connection succeeded")
	}
	if comp.Busy() != busy {
		t.Errorf("dead-connection call billed %v of transport CPU", comp.Busy()-busy)
	}
	if got := errs.Value() - failed; got != 1 {
		t.Errorf("rpc.errors grew by %d, want 1", got)
	}
}

// TestTCPSlotsNeverCrossResults: eight goroutines share one client while
// the server hangs up halfway through. Slots are reused thousands of
// times, some after the failure claimed them mid-write; every call must
// still return its own payload or an error, never another call's result.
func TestTCPSlotsNeverCrossResults(t *testing.T) {
	srv := NewServer(nil, nil, CostModel{})
	srv.Handle("echo", func(req []byte) ([]byte, error) { return req, nil })
	ln := serveTCP(t, srv)
	c := dialTCP(t, ln)
	const workers, calls = 8, 500
	var ok, failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if w == 0 && i == calls/2 {
					srv.Close()
					ln.cut()
				}
				payload := []byte(fmt.Sprintf("worker %d call %d", w, i))
				resp, err := c.Call("echo", payload)
				if err != nil {
					failed.Add(1)
					continue
				}
				if !bytes.Equal(resp, payload) {
					t.Errorf("call %q got %q", payload, resp)
					return
				}
				ok.Add(1)
				PutBuffer(resp)
			}
		}(w)
	}
	wg.Wait()
	if ok.Load() == 0 || failed.Load() == 0 {
		t.Fatalf("%d calls succeeded, %d failed: the run must see both", ok.Load(), failed.Load())
	}
}

// resetConn is a client socket whose peer is gone: the failure reaches
// the read side while a request is being written, and the write fails.
type resetConn struct {
	net.Conn
	c *Client
}

func (r resetConn) Write([]byte) (int, error) {
	err := errors.New("connection reset by peer")
	r.c.fail(err)
	return 0, err
}

// TestSlotForgetDrainsClaimedSignal: when the connection fails while a
// request is being written, the failure claims the call's slot and
// signals it before the writer gives up. The slot must go back to the
// free list without that signal, or its next call wakes on a stale result.
func TestSlotForgetDrainsClaimedSignal(t *testing.T) {
	c := &Client{pending: make(map[uint64]*pendingCall)}
	c.conn = resetConn{c: c}
	if _, err := c.Call("echo", []byte("x")); err == nil {
		t.Fatal("call over a reset connection succeeded")
	}
	if len(c.pending) != 0 || len(c.free) != 1 {
		t.Fatalf("%d pending, %d free slots; want 0 and 1", len(c.pending), len(c.free))
	}
	if p := c.free[0]; len(p.done) != 0 || p.res.body != nil || p.res.err != nil {
		t.Fatalf("idle slot holds a signal (%d) or a result (%+v)", len(p.done), p.res)
	}
}

// TestServerWorkersReused: a connection's calls are served by a few
// reused workers, not a goroutine each, and closing the connection reaps
// them.
func TestServerWorkersReused(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, _ := newTestServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { srv.Serve(ln); close(served) }()
	c, err := Dial(ln.Addr().String(), nil, nil, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	call := func() {
		if resp, err := c.Call("echo", []byte("x")); err != nil || string(resp) != "echo:x" {
			t.Fatalf("echo: %q, %v", resp, err)
		}
	}
	call()
	warm := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		call()
	}
	if n := runtime.NumGoroutine(); n > warm+2 {
		t.Errorf("1,000 sequential calls raised the goroutine count from %d to %d", warm, n)
	}
	c.Close()
	srv.Close()
	<-served
	waitFor(t, "the connection's goroutines to exit", func() bool { return runtime.NumGoroutine() <= baseline })
}

// TestServerWorkersDropLargeBuffers: eight concurrent 1 MB calls leave
// eight idle workers behind. None of them, nor the pooled requests, may
// keep a 1 MB buffer; and once the 1 KB traffic resumes, its round trip
// is allocation free again.
func TestServerWorkersDropLargeBuffers(t *testing.T) {
	const big, callers = 1 << 20, 8
	srv := NewServer(nil, nil, CostModel{})
	var arrived sync.WaitGroup
	arrived.Add(callers)
	gate := make(chan struct{})
	srv.Handle("big", func(req []byte) ([]byte, error) {
		arrived.Done()
		<-gate // hold this worker until every big call has one
		return req, nil
	})
	srv.Handle("echo", func(req []byte) ([]byte, error) { return req, nil })
	c := dialTCP(t, serveTCP(t, srv))
	small := echoCall(t, c, "echo", bytes.Repeat([]byte("k"), 1<<10))
	small()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	func() {
		payload := bytes.Repeat([]byte("v"), big)
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if resp, err := c.Call("big", payload); err != nil || len(resp) != big {
					t.Errorf("big: %d bytes, %v", len(resp), err)
				}
			}()
		}
		arrived.Wait()
		close(gate)
		wg.Wait()
	}()
	runtime.GC()
	runtime.GC() // the second cycle empties the pools' victim caches
	runtime.ReadMemStats(&after)
	// Each endpoint's read buffer legitimately keeps one big frame's
	// capacity; eight workers' encode buffers would add eight more.
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 4*big {
		t.Errorf("heap grew %d KB after the 1 MB calls: idle workers pin their buffers", grown>>10)
	}

	if poisonReleased {
		return // allocation accounting differs under -race
	}
	if allocs := testing.AllocsPerRun(1000, small); allocs != 0 {
		t.Fatalf("1 KB round trip after a 1 MB one allocates %.2f per call, want 0", allocs)
	}
}
