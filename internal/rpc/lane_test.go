package rpc

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cachecost/internal/meter"
	"cachecost/internal/trace"
)

// forwardConn is shaped like a wrapper a deployment owner puts around a
// connection (the benchmark's span recorder, fault.Conn): a TraceConn
// that forwards through CallTraced.
type forwardConn struct{ next Conn }

func (c forwardConn) Call(method string, req []byte) ([]byte, error) {
	return c.CallCtx(trace.SpanContext{}, method, req)
}
func (c forwardConn) CallCtx(sc trace.SpanContext, method string, req []byte) ([]byte, error) {
	return CallTraced(c.next, sc, method, req)
}
func (c forwardConn) Close() error { return c.next.Close() }

// TestLaneCrossesWrappedConn: a context that carries nothing but the
// request's lane — no tracer, no deadline — must still be forwarded, or
// the lane strands at the first wrapper and the callee opens a second
// one. The lane the front door opens is the lane the cache server's
// dispatch sees, and the request reads the clock four times.
func TestLaneCrossesWrappedConn(t *testing.T) {
	m := meter.NewMeter()
	app, cacheComp := m.Component("app"), m.Component("cache")
	cache := NewServer(cacheComp, meter.NewBurner(), DefaultCost)
	var seenByCache *meter.Lane
	cache.HandleCtx("get", func(sc trace.SpanContext, req []byte) ([]byte, error) {
		seenByCache = sc.Lane()
		return req, nil
	})
	conn := forwardConn{NewLoopback(cache, app, meter.NewBurner(), DefaultCost)}
	front := NewServer(app, meter.NewBurner(), DefaultCost)
	front.SetMeterHandlerBody(false)
	var opened *meter.Lane
	front.HandleCtx("read", func(sc trace.SpanContext, req []byte) ([]byte, error) {
		opened = sc.Lane()
		return CallTraced(conn, sc, "get", req)
	})
	if _, err := front.Dispatch("read", []byte("k")); err != nil {
		t.Fatal(err)
	}
	if opened == nil || seenByCache != opened {
		t.Fatalf("front door opened lane %p, cache server saw %p", opened, seenByCache)
	}
	// Every charge landed once: two per endpoint, plus the cache handler body.
	if app.Ops() != 4 || cacheComp.Ops() != 3 {
		t.Fatalf("ops: app %d cache %d, want 4 and 3", app.Ops(), cacheComp.Ops())
	}
}

// costSum is a FlightRecorder that sums the busy time each finished
// request was billed: the elapsed time of the lane its dispatch opened.
type costSum struct{ ns atomic.Int64 }

func (c *costSum) Begin(sc trace.SpanContext) trace.SpanContext { return sc }
func (c *costSum) Done(sc trace.SpanContext, _ string, _ time.Time, _ time.Duration, _ error) {
	c.ns.Add(int64(sc.Lane().Busy()))
}

// TestSocketWaitIsParked: on the wall clock (what every cmd/ binary
// meters with) a front-door handler blocked on a TCP call is not burning
// app CPU. Two concurrent requests each wait 5 ms on a sleeping backend:
// the app component is billed well under a millisecond per request, and
// what all components were billed does not exceed what the requests'
// lanes measured.
func TestSocketWaitIsParked(t *testing.T) {
	m := meter.NewMeter()
	app, backendComp := m.Component("app"), m.Component("backend")
	var billed costSum

	backend := NewServer(backendComp, meter.NewBurner(), DefaultCost)
	backend.SetFlight(&billed)
	backend.Handle("slow", func(req []byte) ([]byte, error) {
		time.Sleep(5 * time.Millisecond)
		return req, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { backend.Serve(ln); close(served) }()
	defer func() { backend.Close(); <-served }()
	client, err := Dial(ln.Addr().String(), app, meter.NewBurner(), DefaultCost)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	front := NewServer(app, meter.NewBurner(), DefaultCost)
	front.SetMeterHandlerBody(false)
	front.SetFlight(&billed)
	front.HandleCtx("read", func(sc trace.SpanContext, req []byte) ([]byte, error) {
		return CallTraced(client, sc, "slow", req)
	})

	const requests = 2
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := front.Dispatch("read", []byte("k")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	if perReq := app.Busy() / requests; perReq >= time.Millisecond {
		t.Errorf("app busy %v per request: the socket wait was billed as app CPU", perReq)
	}
	if backendComp.Busy() < requests*5*time.Millisecond {
		t.Errorf("backend busy %v: its handlers slept %v on the wall clock", backendComp.Busy(), requests*5*time.Millisecond)
	}
	if sum, lanes := app.Busy()+backendComp.Busy(), time.Duration(billed.ns.Load()); sum > lanes {
		t.Errorf("components were billed %v, the requests' lanes measured %v", sum, lanes)
	}
}
