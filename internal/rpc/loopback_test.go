package rpc

import (
	"fmt"
	"sync"
	"testing"

	"cachecost/internal/meter"
)

// TestLoopbackResponseIsCallerOwned: the loopback recycles its request
// scratch buffers, so the response handed to the caller must be a
// private copy that later calls cannot clobber.
func TestLoopbackResponseIsCallerOwned(t *testing.T) {
	m := meter.NewMeter()
	s := NewServer(m.Component("server"), meter.NewBurner(), CostModel{})
	s.Handle("echo", func(req []byte) ([]byte, error) { return req, nil })
	lb := NewLoopback(s, m.Component("client"), meter.NewBurner(), CostModel{})

	first, err := lb.Call("echo", []byte("first-payload"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lb.Call("echo", []byte("SECOND-PAYLOAD")); err != nil {
		t.Fatal(err)
	}
	if string(first) != "first-payload" {
		t.Fatalf("first response clobbered by second call: %q", first)
	}
	// And mutating a response must not poison the transport.
	for i := range first {
		first[i] = 0
	}
	resp, err := lb.Call("echo", []byte("third"))
	if err != nil || string(resp) != "third" {
		t.Fatalf("Call = %q, %v", resp, err)
	}
}

// TestLoopbackConcurrentCallers exercises the pooled request buffers from
// several goroutines (meaningful under -race).
func TestLoopbackConcurrentCallers(t *testing.T) {
	m := meter.NewMeter()
	s := NewServer(m.Component("server"), meter.NewBurner(), CostModel{})
	s.Handle("echo", func(req []byte) ([]byte, error) { return req, nil })

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		// One loopback per goroutine, as the experiment driver wires it.
		lb := NewLoopback(s, m.Component("client"), meter.NewBurner(), CostModel{})
		wg.Add(1)
		go func(w int, lb *Loopback) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				want := fmt.Sprintf("w%d-%d", w, i)
				resp, err := lb.Call("echo", []byte(want))
				if err != nil || string(resp) != want {
					t.Errorf("Call = %q, %v (want %q)", resp, err, want)
					return
				}
			}
		}(w, lb)
	}
	wg.Wait()
}
