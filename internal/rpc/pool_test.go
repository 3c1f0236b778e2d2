package rpc

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolRoundRobinOverTCP(t *testing.T) {
	s, _ := newTestServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer s.Close()

	p, err := DialPool(l.Addr().String(), 4, nil, nil, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if len(*p.conns.Load()) != 4 {
		t.Fatalf("%d conns", len(*p.conns.Load()))
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				want := fmt.Sprintf("w%d-%d", w, i)
				resp, err := p.Call("echo", []byte(want))
				if err != nil {
					errs <- err
					return
				}
				if string(resp) != "echo:"+want {
					errs <- fmt.Errorf("cross-talk: %q", resp)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPoolSpreadsAcrossConnections(t *testing.T) {
	// Wrap counting conns to observe the round-robin.
	counts := make([]int, 3)
	conns := make([]Conn, 3)
	for i := range conns {
		i := i
		conns[i] = connFunc(func(method string, req []byte) ([]byte, error) {
			counts[i]++
			return req, nil
		})
	}
	p := NewPool(conns...)
	for i := 0; i < 9; i++ {
		if _, err := p.Call("m", nil); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range counts {
		if c != 3 {
			t.Fatalf("conn %d served %d calls, want 3 (%v)", i, c, counts)
		}
	}
}

func TestPoolClose(t *testing.T) {
	closed := 0
	p := NewPool(connFunc(nil).withClose(&closed), connFunc(nil).withClose(&closed))
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if closed != 2 {
		t.Fatalf("closed %d conns, want 2", closed)
	}
	if _, err := p.Call("m", nil); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("call after close: %v", err)
	}
	// Empty pool behaves as closed.
	if _, err := NewPool().Call("m", nil); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("empty pool call: %v", err)
	}
}

func TestDialPoolMinimumOne(t *testing.T) {
	s, _ := newTestServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer s.Close()
	p, err := DialPool(l.Addr().String(), 0, nil, nil, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if len(*p.conns.Load()) != 1 {
		t.Fatalf("%d conns, want 1", len(*p.conns.Load()))
	}
}

func TestDialPoolFailureClosesPartial(t *testing.T) {
	if _, err := DialPool("127.0.0.1:1", 3, nil, nil, CostModel{}); err == nil {
		t.Fatal("dialing a dead port should fail")
	}
}

func TestPoolFailsOverOnTransportError(t *testing.T) {
	bad := errors.New("connection reset")
	calls := 0
	p := NewPool(
		connFunc(func(string, []byte) ([]byte, error) { calls++; return nil, bad }),
		connFunc(func(string, []byte) ([]byte, error) { calls++; return []byte("ok"), nil }),
	)
	for i := 0; i < 4; i++ {
		resp, err := p.Call("m", nil)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if string(resp) != "ok" {
			t.Fatalf("resp = %q", resp)
		}
	}
	if calls < 4 {
		t.Fatalf("underlying calls = %d", calls)
	}
}

func TestPoolDoesNotFailOverRemoteErrors(t *testing.T) {
	attempts := []int{0, 0}
	p := NewPool(
		connFunc(func(m string, _ []byte) ([]byte, error) {
			attempts[0]++
			return nil, &RemoteError{Method: m, Msg: "bad request"}
		}),
		connFunc(func(string, []byte) ([]byte, error) { attempts[1]++; return []byte("ok"), nil }),
	)
	sawRemote := 0
	for i := 0; i < 8; i++ {
		_, err := p.Call("m", nil)
		var re *RemoteError
		if errors.As(err, &re) {
			sawRemote++
		}
	}
	if sawRemote != attempts[0] {
		t.Fatalf("%d calls hit the erroring conn but %d returned RemoteError", attempts[0], sawRemote)
	}
	if sawRemote == 0 {
		t.Fatal("round-robin never reached the erroring conn")
	}
}

// connFunc adapts a function to Conn for pool tests.
type connFunc func(method string, req []byte) ([]byte, error)

func (f connFunc) Call(method string, req []byte) ([]byte, error) { return f(method, req) }
func (f connFunc) Close() error                                   { return nil }

type closeCountingConn struct {
	connFunc
	n *int
}

func (c closeCountingConn) Close() error {
	*c.n++
	return nil
}

func (f connFunc) withClose(n *int) Conn { return closeCountingConn{connFunc: f, n: n} }

// TestPoolConcurrentCallers drives the pool from several callers at
// once; under -race this checks the lock-free checkout path.
func TestPoolConcurrentCallers(t *testing.T) {
	var total atomic.Int64
	conns := make([]Conn, 4)
	for i := range conns {
		conns[i] = connFunc(func(method string, req []byte) ([]byte, error) {
			total.Add(1)
			return req, nil
		})
	}
	p := NewPool(conns...)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := p.Call("m", []byte(fmt.Sprintf("%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := total.Load(); got != 8*50 {
		t.Fatalf("served %d calls, want %d", got, 8*50)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Call("m", nil); err == nil {
		t.Fatal("Call after Close should fail")
	}
}
