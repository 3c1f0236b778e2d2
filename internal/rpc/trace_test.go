package rpc

import (
	"bytes"
	"net"
	"strings"
	"testing"

	"cachecost/internal/meter"
	"cachecost/internal/trace"
)

func TestTracedFrameRoundtrip(t *testing.T) {
	in := frame{kind: frameRequestTraced, id: 9, method: "kv.Get", body: []byte("x"),
		traceID: 0xdeadbeef, spanID: 77, sampled: true}
	buf, err := appendFrame(nil, &in)
	if err != nil {
		t.Fatal(err)
	}
	var out frame
	if err := readFrame(bytes.NewReader(buf), &out); err != nil {
		t.Fatal(err)
	}
	if out.traceID != in.traceID || out.spanID != in.spanID || out.sampled != in.sampled {
		t.Fatalf("trace context lost: %+v vs %+v", out, in)
	}
	if out.method != in.method || !bytes.Equal(out.body, in.body) {
		t.Fatalf("payload lost: %+v vs %+v", out, in)
	}
}

func TestFrameBadTraceContextFailsClosed(t *testing.T) {
	in := frame{kind: frameRequestTraced, id: 1, method: "m", body: []byte("b"),
		traceID: 7, spanID: 8, sampled: true}
	buf, err := appendFrame(nil, &in)
	if err != nil {
		t.Fatal(err)
	}
	// The flags byte sits after the length header (4), the kind (1) and
	// the two 8-byte IDs. An unknown flag bit must reject the frame, not
	// stitch spans into a guessed trace.
	corrupt := append([]byte(nil), buf...)
	corrupt[4+1+16] |= 0x80
	var out frame
	if err := readFrame(bytes.NewReader(corrupt), &out); err == nil || !strings.Contains(err.Error(), "trace context") {
		t.Fatalf("corrupt trace context decoded: err=%v", err)
	}
	// A frame truncated inside the trace-context block fails too.
	for i := 5; i < 5+17; i++ {
		if err := readFrame(bytes.NewReader(buf[:i]), &out); err == nil {
			t.Fatalf("truncated traced frame of %d bytes decoded", i)
		}
	}
}

func TestTracePropagatesOverTCP(t *testing.T) {
	serverTr := trace.New(trace.Config{})
	m := meter.NewMeter()
	s := NewServer(m.Component("server"), meter.NewBurner(), DefaultCost)
	s.SetTracer(serverTr, "storage.rpc")
	s.Handle("echo", func(req []byte) ([]byte, error) { return req, nil })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer s.Close()

	clientTr := trace.New(trace.Config{})
	c, err := Dial(l.Addr().String(), m.Component("client"), meter.NewBurner(), DefaultCost)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sc, root := clientTr.StartRequest("read")
	lane := meter.OpenLane(m.Component("client"))
	if _, err := CallTraced(c, sc.WithLane(lane), "echo", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	lane.Close()
	root.End()

	full := clientTr.Last()
	if full == nil {
		t.Fatal("client recorded no trace")
	}
	var hop *trace.Span
	for i := range full.Spans {
		if full.Spans[i].Component == "rpc" {
			hop = &full.Spans[i]
		}
	}
	if hop == nil {
		t.Fatalf("no client hop span: %+v", full.Spans)
	}
	if v, _ := hop.Annotation("rpc.hop"); v != "tcp" {
		t.Errorf("hop annotated %q, want tcp", v)
	}
	if got := m.Path().RPCHops; got != 1 {
		t.Errorf("client counted %d hops, want 1", got)
	}

	frag := serverTr.Last()
	if frag == nil {
		t.Fatal("server recorded no fragment: trace context did not cross the wire")
	}
	if frag.ID != full.ID {
		t.Errorf("server fragment trace ID %d, want client's %d", frag.ID, full.ID)
	}
	if len(frag.Spans) != 1 || frag.Spans[0].Component != "storage.rpc" || frag.Spans[0].Op != "echo" {
		t.Fatalf("server fragment spans: %+v", frag.Spans)
	}
	if frag.Spans[0].Parent != trace.SpanID(hop.ID) {
		t.Errorf("server span parent %d, want client hop %d", frag.Spans[0].Parent, hop.ID)
	}
}

func TestUntracedCallsStayOnPlainFrames(t *testing.T) {
	// A Call (or an unsampled CallCtx) must emit kind-0 frames so mixed
	// fleets interoperate; only sampled requests pay the 17-byte block.
	in := frame{kind: frameRequest, id: 3, method: "m", body: []byte("b")}
	buf, err := appendFrame(nil, &in)
	if err != nil {
		t.Fatal(err)
	}
	traced := frame{kind: frameRequestTraced, id: 3, method: "m", body: []byte("b"), sampled: true, traceID: 1, spanID: 1}
	tbuf, err := appendFrame(nil, &traced)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbuf)-len(buf) != 17 {
		t.Fatalf("traced frame overhead %d bytes, want 17", len(tbuf)-len(buf))
	}
}

// plainConn hides CallCtx so CallTraced must fall back to Call.
type plainConn struct{ inner Conn }

func (p plainConn) Call(method string, req []byte) ([]byte, error) { return p.inner.Call(method, req) }
func (p plainConn) Close() error                                   { return p.inner.Close() }

func TestCallTracedFallsBackWithoutTraceConn(t *testing.T) {
	s, m := newTestServer(t)
	lb := NewLoopback(s, m.Component("app"), meter.NewBurner(), DefaultCost)
	tr := trace.New(trace.Config{})
	sc, root := tr.StartRequest("read")
	lane := meter.OpenLane(m.Component("app"))
	resp, err := CallTraced(plainConn{lb}, sc.WithLane(lane), "echo", []byte("x"))
	lane.Close()
	root.End()
	if err != nil || string(resp) != "echo:x" {
		t.Fatalf("CallTraced via plain conn = %q, %v", resp, err)
	}
	if got := m.Path().RPCHops; got != 0 {
		t.Errorf("plain conn counted %d hops, want 0 (no TraceConn)", got)
	}
}

func TestLoopbackHopSpanAndDirectZeroHop(t *testing.T) {
	s, m := newTestServer(t)
	tr := trace.New(trace.Config{})

	lb := NewLoopback(s, m.Component("app"), meter.NewBurner(), DefaultCost)
	sc, root := tr.StartRequest("read")
	lane := meter.OpenLane(m.Component("app"))
	if _, err := CallTraced(lb, sc.WithLane(lane), "echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
	lane.Close()
	root.End()
	if got := m.Path().RPCHops; got != 1 {
		t.Errorf("loopback counted %d hops, want 1", got)
	}
	full := tr.Last()
	found := false
	for _, sp := range full.Spans {
		if sp.Component == "rpc" && sp.Op == "echo" {
			if v, _ := sp.Annotation("rpc.hop"); v != "loopback" {
				t.Errorf("hop annotated %q, want loopback", v)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no loopback hop span: %+v", full.Spans)
	}

	// Direct dispatch is in-process shared memory: no hop, no span. This
	// is the foundation of the Linked architecture's zero-hop invariant.
	m.Reset()
	d := NewDirect(s)
	sc2, root2 := tr.StartRequest("read")
	lane = meter.OpenLane(m.Component("app"))
	if _, err := CallTraced(d, sc2.WithLane(lane), "echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
	lane.Close()
	root2.End()
	if got := m.Path().RPCHops; got != 0 {
		t.Errorf("direct counted %d hops, want 0", got)
	}
	for _, sp := range tr.Last().Spans {
		if sp.Component == "rpc" {
			t.Errorf("direct dispatch recorded a hop span: %+v", sp)
		}
	}
}
