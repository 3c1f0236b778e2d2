package rpc

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"

	"cachecost/internal/wire"
)

// The tests in this file pin the handler-response rows of DESIGN.md's
// "Buffer ownership" table. Under -race PutBuffer poisons what it
// recycles, so a buffer handed back while someone still reads it shows up
// as wrong bytes here instead of passing by luck.

// ownershipConns returns srv behind both copying transports.
func ownershipConns(t *testing.T, srv *Server) map[string]Conn {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	tcp, err := Dial(l.Addr().String(), nil, nil, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tcp.Close() })
	return map[string]Conn{
		"loopback": NewLoopback(srv, nil, nil, CostModel{}),
		"tcp":      tcp,
	}
}

// hammer issues calls from several goroutines at once, each with its own
// payloads, recycling every response as the real clients do, and reports
// any response that is not want(payload).
func hammer(t *testing.T, conn Conn, method string, want func(payload []byte) []byte) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				payload := bytes.Repeat([]byte{byte('a' + w)}, 40+i%100)
				payload = append(payload, fmt.Sprintf("|%d.%d", w, i)...)
				resp, err := conn.Call(method, payload)
				if err != nil {
					t.Errorf("%s: %v", method, err)
					return
				}
				if !bytes.Equal(resp, want(payload)) {
					t.Errorf("%s worker %d call %d: response corrupted: %q", method, w, i, resp)
					return
				}
				PutBuffer(resp)
			}
		}(w)
	}
	wg.Wait()
}

// TestEchoSubsliceOfRequestSurvivesPooledServer: on a server that gives
// its responses to the transport, a handler may still answer with its
// request, or a piece of it. The transport must notice and leave that
// memory to the request buffer's owner — recycling it too would put one
// array in two pools.
func TestEchoSubsliceOfRequestSurvivesPooledServer(t *testing.T) {
	srv := NewServer(nil, nil, CostModel{})
	srv.SetPooledResponses(true)
	srv.Handle("echo", func(req []byte) ([]byte, error) { return req, nil })
	srv.Handle("tail", func(req []byte) ([]byte, error) { return req[3 : len(req)-1 : len(req)-1], nil })
	srv.Handle("pooled", func(req []byte) ([]byte, error) {
		return wire.Append(GetBuffer(), func(e *wire.Encoder) { e.BytesField(1, req) }), nil
	})
	for name, conn := range ownershipConns(t, srv) {
		t.Run(name, func(t *testing.T) {
			hammer(t, conn, "echo", func(p []byte) []byte { return p })
			hammer(t, conn, "tail", func(p []byte) []byte { return p[3 : len(p)-1] })
			hammer(t, conn, "pooled", func(p []byte) []byte {
				return wire.Append(nil, func(e *wire.Encoder) { e.BytesField(1, p) })
			})
		})
	}
}

// TestEchoSharedBufferIsNotRecycled: a server that has not declared its
// responses pooled may answer every call with one buffer it keeps (the
// benchmark's replay does). The transport copies it and must never hand
// it to the pool, where the next GetBuffer caller would scribble on it.
func TestEchoSharedBufferIsNotRecycled(t *testing.T) {
	shared := bytes.Repeat([]byte("shared-response."), 64)
	want := append([]byte(nil), shared...)
	srv := NewServer(nil, nil, CostModel{})
	srv.Handle("echo", func([]byte) ([]byte, error) { return shared, nil })
	for name, conn := range ownershipConns(t, srv) {
		t.Run(name, func(t *testing.T) {
			hammer(t, conn, "echo", func([]byte) []byte { return want })
			// Whatever the pool now holds, writing through it must not
			// reach the handler's buffer.
			for i := 0; i < 64; i++ {
				b := append(GetBuffer(), bytes.Repeat([]byte{0xEE}, len(shared))...)
				defer PutBuffer(b)
			}
			if !bytes.Equal(shared, want) {
				t.Fatal("the handler's own buffer was recycled and overwritten")
			}
		})
	}
}

// TestOwnershipPooledResponseRecycles: the point of the declaration — a
// handler reply built in a pool buffer goes back to the pool, so a
// loopback round trip allocates nothing in the steady state.
func TestOwnershipPooledResponseRecycles(t *testing.T) {
	if poisonReleased {
		t.Skip("allocation accounting differs under -race")
	}
	value := bytes.Repeat([]byte("v"), 16<<10)
	srv := NewServer(nil, nil, CostModel{})
	srv.SetPooledResponses(true)
	srv.Handle("get", func([]byte) ([]byte, error) {
		return wire.Append(GetBuffer(), func(e *wire.Encoder) { e.BytesField(2, value) }), nil
	})
	lb := NewLoopback(srv, nil, nil, CostModel{})
	req := []byte("key")
	allocs := testing.AllocsPerRun(500, func() {
		resp, err := lb.Call("get", req)
		if err != nil {
			panic(err)
		}
		PutBuffer(resp)
	})
	if allocs > 0 {
		t.Fatalf("pooled loopback round trip allocates %.1f per call, want 0", allocs)
	}
}

// TestOwnershipTCPResponseBufferCycles: the client's read loop delivers
// each response in a pool buffer, so the PutBuffer every caller ends with
// feeds the next response instead of a pool nothing drains. Everything
// else on the socket path is reused too: a 16 KB round trip allocates
// nothing, not even a byte.
func TestOwnershipTCPResponseBufferCycles(t *testing.T) {
	if poisonReleased {
		t.Skip("allocation accounting differs under -race")
	}
	value := bytes.Repeat([]byte("v"), 16<<10)
	srv := NewServer(nil, nil, CostModel{})
	srv.Handle("get", func([]byte) ([]byte, error) { return value, nil })
	conn := ownershipConns(t, srv)["tcp"]
	key := []byte("key")
	call := func() {
		resp, err := conn.Call("get", key)
		if err != nil || len(resp) != len(value) {
			t.Fatalf("get: %d bytes, %v", len(resp), err)
		}
		PutBuffer(resp)
	}
	// One P, as testing.AllocsPerRun runs: the per-P pools then hand each
	// buffer straight back to the goroutine that needs it next.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 50; i++ { // fill the pool and the frame buffers
		call()
	}
	const calls = 300
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	// A rare pool miss is not a buffer that fails to cycle, which
	// would cost a value per call.
	allocs, perCall := (after.Mallocs-before.Mallocs)/calls, (after.TotalAlloc-before.TotalAlloc)/calls
	if allocs != 0 || perCall > uint64(len(value))/100 {
		t.Fatalf("tcp round trip allocates %d objects, %d B per call; want 0 and under 1%% of the value", allocs, perCall)
	}
}
