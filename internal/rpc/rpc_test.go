package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"cachecost/internal/meter"
)

func TestFrameRoundtrip(t *testing.T) {
	in := frame{kind: frameRequest, id: 42, method: "kv.Get", body: []byte("payload")}
	buf, err := appendFrame(nil, &in)
	if err != nil {
		t.Fatal(err)
	}
	var out frame
	if err := readFrame(bytes.NewReader(buf), &out); err != nil {
		t.Fatal(err)
	}
	if out.kind != in.kind || out.id != in.id || out.method != in.method || !bytes.Equal(out.body, in.body) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", out, in)
	}
}

func TestFrameRoundtripProperty(t *testing.T) {
	f := func(id uint64, method string, body []byte) bool {
		if len(method)+len(body) > 1<<20 {
			return true
		}
		in := frame{kind: frameResponse, id: id, method: method, body: body}
		buf, err := appendFrame(nil, &in)
		if err != nil {
			return false
		}
		var out frame
		if err := readFrame(bytes.NewReader(buf), &out); err != nil {
			return false
		}
		return out.id == id && out.method == method && bytes.Equal(out.body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameTruncated(t *testing.T) {
	in := frame{kind: frameRequest, id: 1, method: "m", body: []byte("hello")}
	buf, _ := appendFrame(nil, &in)
	for i := 0; i < len(buf); i++ {
		var out frame
		if err := readFrame(bytes.NewReader(buf[:i]), &out); err == nil {
			t.Fatalf("prefix of %d bytes should fail", i)
		}
	}
}

// TestFrameInternsMethodNames: one reader decodes 40 distinct method
// names, three times over, each exactly; it keeps a bounded list of them,
// and a name it kept decodes without allocating.
func TestFrameInternsMethodNames(t *testing.T) {
	names := make([]string, 40)
	var buf []byte
	for round := 0; round < 3; round++ {
		for i := range names {
			names[i] = fmt.Sprintf("svc.Method%02d", i)
			in := frame{kind: frameRequest, id: uint64(round*len(names) + i), method: names[i], body: []byte(names[i])}
			var err error
			if buf, err = appendFrame(buf, &in); err != nil {
				t.Fatal(err)
			}
		}
	}
	r := bytes.NewReader(buf)
	var rd frame
	for round := 0; round < 3; round++ {
		for i, name := range names {
			if err := readFrame(r, &rd); err != nil {
				t.Fatal(err)
			}
			if rd.method != name || rd.id != uint64(round*len(names)+i) || string(rd.body) != name {
				t.Fatalf("round %d frame %d: method %q id %d body %q", round, i, rd.method, rd.id, rd.body)
			}
		}
	}
	if len(rd.names) > maxInternedMethods {
		t.Fatalf("reader keeps %d names, bound is %d", len(rd.names), maxInternedMethods)
	}
	known, _ := appendFrame(nil, &frame{kind: frameRequest, id: 1, method: names[0], body: []byte("k")})
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(known)
		if err := readFrame(r, &rd); err != nil || rd.method != names[0] {
			t.Fatalf("%q, %v", rd.method, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("decoding a kept method name allocates %.1f per frame", allocs)
	}
}

func TestFrameTooLarge(t *testing.T) {
	in := frame{kind: frameRequest, id: 1, method: "m", body: make([]byte, maxFrameSize+1)}
	if _, err := appendFrame(nil, &in); err == nil {
		t.Fatal("oversized frame should be rejected at encode time")
	}
	// Oversized length header rejected at decode time.
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	var out frame
	if err := readFrame(bytes.NewReader(hdr), &out); err == nil {
		t.Fatal("oversized frame should be rejected at decode time")
	}
}

func newTestServer(t *testing.T) (*Server, *meter.Meter) {
	t.Helper()
	m := meter.NewMeter()
	s := NewServer(m.Component("server"), meter.NewBurner(), DefaultCost)
	s.Handle("echo", func(req []byte) ([]byte, error) {
		return append([]byte("echo:"), req...), nil
	})
	s.Handle("fail", func(req []byte) ([]byte, error) {
		return nil, errors.New("boom")
	})
	s.Handle("slow", func(req []byte) ([]byte, error) {
		time.Sleep(20 * time.Millisecond)
		return []byte("slow"), nil
	})
	return s, m
}

func TestDispatch(t *testing.T) {
	s, m := newTestServer(t)
	resp, err := s.Dispatch("echo", []byte("hi"))
	if err != nil || string(resp) != "echo:hi" {
		t.Fatalf("Dispatch = %q, %v", resp, err)
	}
	if _, err := s.Dispatch("nope", nil); !errors.Is(err, ErrNoSuchMethod) {
		t.Fatalf("want ErrNoSuchMethod, got %v", err)
	}
	if _, err := s.Dispatch("fail", nil); err == nil {
		t.Fatal("handler error should propagate")
	}
	snap := m.Snapshot()
	if len(snap) != 1 || snap[0].Busy <= 0 {
		t.Fatalf("dispatch should meter server busy time: %+v", snap)
	}
}

func TestTCPEndToEnd(t *testing.T) {
	s, _ := newTestServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer s.Close()

	m := meter.NewMeter()
	c, err := Dial(l.Addr().String(), m.Component("client"), meter.NewBurner(), DefaultCost)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Call("echo", []byte("over tcp"))
	if err != nil || string(resp) != "echo:over tcp" {
		t.Fatalf("Call = %q, %v", resp, err)
	}

	_, err = c.Call("fail", nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if re.Method != "fail" || !strings.Contains(re.Msg, "boom") {
		t.Fatalf("RemoteError = %+v", re)
	}

	_, err = c.Call("nope", nil)
	if err == nil || !strings.Contains(err.Error(), "no such method") {
		t.Fatalf("unknown method over TCP: %v", err)
	}

	if m.Component("client").Busy() <= 0 {
		t.Fatal("client overhead should be metered")
	}
}

func TestTCPConcurrentCalls(t *testing.T) {
	s, _ := newTestServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer s.Close()

	c, err := Dial(l.Addr().String(), nil, nil, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("msg-%d", i)
			resp, err := c.Call("echo", []byte(want))
			if err != nil {
				errs <- err
				return
			}
			if string(resp) != "echo:"+want {
				errs <- fmt.Errorf("cross-talk: got %q want echo:%s", resp, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSlowHandlerDoesNotBlockOthers(t *testing.T) {
	s, _ := newTestServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer s.Close()

	c, err := Dial(l.Addr().String(), nil, nil, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done := make(chan struct{})
	go func() {
		c.Call("slow", nil)
		close(done)
	}()
	time.Sleep(time.Millisecond)
	t0 := time.Now()
	if _, err := c.Call("echo", []byte("fast")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d > 15*time.Millisecond {
		t.Fatalf("fast call head-of-line blocked for %v", d)
	}
	<-done
}

func TestClientFailsPendingOnDisconnect(t *testing.T) {
	s, _ := newTestServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)

	c, err := Dial(l.Addr().String(), nil, nil, CostModel{})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := c.Call("slow", nil)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pending call should fail after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call hung after Close")
	}
	if _, err := c.Call("echo", nil); err == nil {
		t.Fatal("calls after Close should fail")
	}
	s.Close()
}

func TestServerClose(t *testing.T) {
	s, _ := newTestServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	time.Sleep(5 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		if err == nil {
			t.Fatal("Serve should return an error after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	// Serving on a closed server fails fast.
	l2, _ := net.Listen("tcp", "127.0.0.1:0")
	if err := s.Serve(l2); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Serve on closed server: %v", err)
	}
}

func TestLoopbackSemantics(t *testing.T) {
	s, sm := newTestServer(t)
	cm := meter.NewMeter()
	lb := NewLoopback(s, cm.Component("client"), meter.NewBurner(), DefaultCost)

	req := []byte("hello")
	resp, err := lb.Call("echo", req)
	if err != nil || string(resp) != "echo:hello" {
		t.Fatalf("loopback Call = %q, %v", resp, err)
	}
	// Both endpoints charged.
	if cm.Component("client").Busy() <= 0 {
		t.Fatal("loopback should charge the caller")
	}
	if sm.Component("server").Busy() <= 0 {
		t.Fatal("loopback should charge the server")
	}
	// Response must not alias server memory: mutate and re-call.
	resp[0] = 'X'
	resp2, _ := lb.Call("echo", req)
	if string(resp2) != "echo:hello" {
		t.Fatal("loopback response aliases server state")
	}
	if err := lb.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := lb.Call("echo", req); err == nil {
		t.Fatal("Call after Close should fail")
	}
}

func TestLoopbackErrorPropagation(t *testing.T) {
	s, _ := newTestServer(t)
	lb := NewLoopback(s, nil, nil, CostModel{})
	if _, err := lb.Call("fail", nil); err == nil {
		t.Fatal("handler error should propagate through loopback")
	}
	if _, err := lb.Call("nope", nil); !errors.Is(err, ErrNoSuchMethod) {
		t.Fatalf("want ErrNoSuchMethod, got %v", err)
	}
}

func TestDirectHasNoTransportCharge(t *testing.T) {
	m := meter.NewMeter()
	s := NewServer(m.Component("server"), meter.NewBurner(), DefaultCost)
	s.Handle("noop", func(req []byte) ([]byte, error) { return nil, nil })

	// Measure the per-call charge through loopback vs direct.
	m.Reset()
	lb := NewLoopback(s, m.Component("caller"), meter.NewBurner(), DefaultCost)
	for i := 0; i < 50; i++ {
		lb.Call("noop", nil)
	}
	loopCaller := m.Component("caller").Busy()

	m.Reset()
	d := NewDirect(s)
	for i := 0; i < 50; i++ {
		d.Call("noop", nil)
	}
	directCaller := m.Component("caller").Busy()

	if directCaller != 0 {
		t.Fatalf("direct conn must not charge the caller, got %v", directCaller)
	}
	if loopCaller == 0 {
		t.Fatal("loopback must charge the caller")
	}
}

func TestCostModelScalesWithBytes(t *testing.T) {
	m := meter.NewMeter()
	b := meter.NewBurner()
	c := m.Component("x")
	cost := CostModel{PerMessage: 100, PerByte: 1}

	cost.Charge(nil, c, b, 0)
	small := c.Busy()
	m.Reset()
	for i := 0; i < 10; i++ {
		cost.Charge(nil, c, b, 1<<20)
	}
	large := c.Busy() / 10
	if large <= small {
		t.Fatalf("per-byte charge should dominate: small=%v large=%v", small, large)
	}

	// Zero model charges nothing.
	m.Reset()
	CostModel{}.Charge(nil, c, b, 1<<20)
	if c.Busy() != 0 {
		t.Fatal("zero cost model should not charge")
	}
}

func BenchmarkLoopbackCall(b *testing.B) {
	m := meter.NewMeter()
	s := NewServer(m.Component("server"), meter.NewBurner(), DefaultCost)
	payload := make([]byte, 1024)
	s.Handle("echo", func(req []byte) ([]byte, error) { return req, nil })
	lb := NewLoopback(s, m.Component("client"), meter.NewBurner(), DefaultCost)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lb.Call("echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPCall(b *testing.B) {
	s := NewServer(nil, nil, CostModel{})
	s.Handle("echo", func(req []byte) ([]byte, error) { return req, nil })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go s.Serve(l)
	defer s.Close()
	c, err := Dial(l.Addr().String(), nil, nil, CostModel{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call("echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}
