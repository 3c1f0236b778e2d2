package remotecache

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"cachecost/internal/cluster"
	"cachecost/internal/rpc"
	"cachecost/internal/trace"
	"cachecost/internal/wire"
)

var noCtx trace.SpanContext

// The tests in this file pin the cache rows of DESIGN.md's "Buffer
// ownership" table. Under -race rpc.PutBuffer poisons what it recycles,
// so a borrowed value whose buffer went back early reads as poison.

// churn recycles n transport buffers of about size bytes, writing into
// each: whatever the pool hands out must be nobody else's.
func churn(n, size int) {
	junk := bytes.Repeat([]byte{0xEE}, size)
	for i := 0; i < n; i++ {
		rpc.PutBuffer(append(rpc.GetBuffer(), junk...))
	}
}

// TestOwnershipBorrowedValueStableUntilReleased: a value BorrowCtx lent
// out stays byte-identical until its buffer is handed back, whatever
// happens to the entry it came from and however hard the pool is worked
// in the meantime — overwrite, Delete, eviction by Resize, and well over
// a thousand recycled buffers, from four goroutines on the same client.
func TestOwnershipBorrowedValueStableUntilReleased(t *testing.T) {
	srv := NewServer(ServerConfig{CapacityBytes: 1 << 20})
	c := NewSingleClient(rpc.NewLoopback(srv.RPCServer(), nil, nil, rpc.CostModel{}))
	want := bytes.Repeat([]byte("borrowed."), 2000)
	if err := c.Set("k", want); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		if err := c.Set("k", want); err != nil {
			t.Fatal(err)
		}
		value, held, found, err := c.BorrowCtx(noCtx, "k")
		if err != nil || !found {
			t.Fatalf("borrow = %v %v", found, err)
		}
		var wg sync.WaitGroup
		for _, fn := range []func(i int){
			func(i int) { c.Set("k", bytes.Repeat([]byte{byte(i)}, len(want))) },
			func(i int) { c.Delete("k"); c.Get("k") },
			func(i int) { srv.Resize(0); srv.Resize(1 << 20); c.Set(fmt.Sprint("other", i), want[:100+i]) },
			func(i int) { churn(4, len(want)); c.Get(fmt.Sprint("other", i)) },
		} {
			wg.Add(1)
			go func(fn func(int)) {
				defer wg.Done()
				for i := 0; i < 300; i++ {
					fn(i)
				}
			}(fn)
		}
		wg.Wait()
		if !bytes.Equal(value, want) {
			t.Fatalf("round %d: borrowed value changed while it was still held", round)
		}
		rpc.PutBuffer(held)
	}
}

// TestOwnershipMultiBorrowAndCopyingGets: the batch lends from one
// MultiGet response on a single node (a routed three-node tier refuses
// it), and Get's value stays the caller's to keep on either: it survives
// the release of every buffer and any amount of pool churn.
func TestOwnershipMultiBorrowAndCopyingGets(t *testing.T) {
	loopback := func() rpc.Conn {
		srv := NewServer(ServerConfig{CapacityBytes: 1 << 20})
		return rpc.NewLoopback(srv.RPCServer(), nil, nil, rpc.CostModel{})
	}
	smap, err := cluster.NewShardMap(16, []string{"c0", "c1", "c2"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	routed, err := NewRoutedClient(map[string]rpc.Conn{"c0": loopback(), "c1": loopback(), "c2": loopback()}, smap)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 24)
	for i := range keys {
		keys[i] = fmt.Sprint("key-", i)
	}
	for _, tc := range []struct {
		name    string
		c       *Client
		batches bool
	}{
		{"single", NewSingleClient(loopback()), true},
		{"routed", routed, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.c
			for i := range keys {
				if i%4 != 3 { // every fourth key is a miss
					if err := c.Set(keys[i], valueOf(i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			check := func(what string, values [][]byte, found []bool) {
				t.Helper()
				for i := range keys {
					if found[i] != (i%4 != 3) || (found[i] && !bytes.Equal(values[i], valueOf(i))) {
						t.Fatalf("%s: key %d: found=%v value=%q", what, i, found[i], values[i])
					}
				}
			}
			values, found, held, err := c.MultiBorrowCtx(noCtx, keys)
			if !tc.batches {
				if !errors.Is(err, errRoutedBatch) {
					t.Fatalf("routed batch = %v, want errRoutedBatch", err)
				}
			} else {
				if err != nil {
					t.Fatal(err)
				}
				if len(held) != 1 {
					t.Fatalf("borrowed from %d buffers, want the one MultiGet response", len(held))
				}
				churn(1200, 600)
				check("borrowed, before release", values, found)
				rpc.PutBuffers(held)
			}

			one, ok, err := c.Get(keys[0])
			if err != nil || !ok {
				t.Fatal(err)
			}
			churn(1200, 600)
			if !bytes.Equal(one, valueOf(0)) {
				t.Fatal("Get's value changed after its response buffer was recycled")
			}
		})
	}
}

func valueOf(i int) []byte { return bytes.Repeat([]byte{byte('A' + i)}, 300+i) }

// TestOwnershipServerGetAliasesKeyAndAllocatesNothing is the server half
// of the rule handleRead's comment states for the front door: on a cache
// node the key is a lookup argument, so Get reads it in place — and, with
// the reply built in a pool buffer, the whole handler allocates nothing,
// however large the value.
func TestOwnershipServerGetAliasesKeyAndAllocatesNothing(t *testing.T) {
	var seen string
	srv := NewServer(ServerConfig{CapacityBytes: 1 << 20, Hot: recordFunc(func(k string) { seen = k })})
	srv.Preload("hot-key", bytes.Repeat([]byte("v"), 16<<10))
	req := []byte("\x0a\x07hot-key") // GetRequest{Key: "hot-key"}
	resp, err := srv.RPCServer().Dispatch("cache.Get", req)
	if err != nil || len(resp) < 16<<10 {
		t.Fatalf("get: %d bytes, %v", len(resp), err)
	}
	if unsafe.StringData(seen) != &req[2] {
		t.Fatal("the key the server looked up is a copy, not the request's bytes")
	}
	if raceEnabled {
		return // allocation accounting differs under -race
	}
	srv2 := NewServer(ServerConfig{CapacityBytes: 1 << 20})
	srv2.Preload("hot-key", bytes.Repeat([]byte("v"), 16<<10))
	allocs := testing.AllocsPerRun(500, func() {
		resp, err := srv2.RPCServer().Dispatch("cache.Get", req)
		if err != nil {
			panic(err)
		}
		rpc.PutBuffer(resp)
	})
	if allocs > 0 {
		t.Fatalf("server Get allocates %.1f per call, want 0", allocs)
	}
	runtime.KeepAlive(srv)
}

// TestRemoteFillAllocs pins a fill on a full node: the request is read in
// place and the entry takes the slab slot its eviction frees, so a
// cache.Set allocates the two copies the store keeps — the key and the
// value — and nothing else.
func TestRemoteFillAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	srv := NewServer(ServerConfig{CapacityBytes: 64 << 10, Shards: 1})
	conn := rpc.NewDirect(srv.RPCServer())
	reqs := make([][]byte, 2000) // 2000 × ~1.1 KB entries: four times the budget
	for i := range reqs {
		reqs[i] = wire.Marshal(&SetRequest{Key: fmt.Sprintf("fill-%04d", i), Value: bytes.Repeat([]byte("v"), 1000)})
	}
	n := 0
	set := func() {
		resp, err := conn.Call("cache.Set", reqs[n%len(reqs)])
		if err != nil {
			panic(err)
		}
		rpc.PutBuffer(resp)
		n++
	}
	for range reqs {
		set()
	}
	if got := testing.AllocsPerRun(2000, set); got > 2 {
		t.Fatalf("a fill allocates %.2f times, want <= 2 (key and value)", got)
	}
	if st := srv.Stats(); st.Evictions == 0 {
		t.Fatalf("stats %+v: the node never filled up", st)
	}
}

type recordFunc func(string)

func (f recordFunc) Record(k string) { f(k) }
