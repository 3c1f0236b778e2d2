package core

import (
	"bytes"
	"sync"
	"testing"
	"unsafe"

	"cachecost/internal/meter"
	"cachecost/internal/remotecache"
	"cachecost/internal/rpc"
	"cachecost/internal/trace"
	"cachecost/internal/wire"
	"cachecost/internal/workload"
)

// The tests in this file pin the front-door and tier rows of DESIGN.md's
// "Buffer ownership" table. Under -race rpc.PutBuffer poisons what it
// recycles, so a value used after its buffer went back reads as poison.

// TestOwnershipRemoteHitHeldUntilReleased: the bytes a Remote hit hands
// the front door are borrowed from the cache response, and stay
// byte-identical until the request gives the buffer back — while four
// goroutines on the same lane overwrite the key (storage write plus cache
// Delete), read it back in (miss, fill, hit), evict the whole node
// (Resize(0) and back) and push well over a thousand other requests'
// buffers through the pool.
func TestOwnershipRemoteHitHeldUntilReleased(t *testing.T) {
	svc, err := BuildKVService(smallCfg(Remote, meter.NewMeter()), smallGen(13))
	if err != nil {
		t.Fatal(err)
	}
	key := workload.KeyName(3)
	want := ValueFor(key, 2048)
	for round := 0; round < 4; round++ {
		if err := svc.Write(key, want); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Read(key); err != nil { // miss: fills the cache
			t.Fatal(err)
		}
		v, held, hit, err := svc.l.tier.read(trace.SpanContext{}, key, svc.l.src)
		if err != nil || !hit || held == nil {
			t.Fatalf("warmed tier read: hit=%v held=%v err=%v", hit, held != nil, err)
		}
		var wg sync.WaitGroup
		for _, fn := range []func(i int) error{
			func(i int) error { return svc.Write(key, ValueFor(workload.KeyName(i), 2048)) },
			func(i int) error { _, err := svc.Read(key); return err },
			func(i int) error {
				svc.RemoteCacheServer().Resize(0)
				svc.RemoteCacheServer().Resize(256 << 10)
				return nil
			},
			func(i int) error {
				_, err := svc.ReadBatch([]string{workload.KeyName(i % 50), workload.KeyName(i%50 + 50)})
				return err
			},
		} {
			wg.Add(1)
			go func(fn func(int) error) {
				defer wg.Done()
				for i := 0; i < 250; i++ {
					if err := fn(i); err != nil {
						t.Error(err)
						return
					}
				}
			}(fn)
		}
		wg.Wait()
		if !bytes.Equal(v, want) {
			t.Fatalf("round %d: a borrowed hit changed before the request released it", round)
		}
		rpc.PutBuffer(held)
	}
}

// TestOwnershipKeyCopiedOnMiss is PR 12's finding as a test: the front
// door must copy the key out of its request, because a miss keeps it —
// the cache fill stores it — long after the request buffer is reused.
// (The cache node's Get, which keeps nothing, reads its key in place:
// remotecache's TestOwnershipServerGetAliasesKeyAndAllocatesNothing.)
func TestOwnershipKeyCopiedOnMiss(t *testing.T) {
	svc, err := BuildKVService(smallCfg(Remote, meter.NewMeter()), smallGen(13))
	if err != nil {
		t.Fatal(err)
	}
	var seen string
	svc.SetAccessObserver(func(key string, _ int64) { seen = key })
	key := workload.KeyName(7)
	req := wire.Marshal(&remotecache.GetRequest{Key: key})
	resp, err := svc.Front().Dispatch("app.Read", req) // cold: a miss that fills
	if err != nil {
		t.Fatal(err)
	}
	rpc.PutBuffer(resp)
	lo, hi := uintptr(unsafe.Pointer(&req[0])), uintptr(unsafe.Pointer(&req[len(req)-1]))
	if p := uintptr(unsafe.Pointer(unsafe.StringData(seen))); p >= lo && p <= hi {
		t.Fatal("the key handed down the miss path aliases the request buffer")
	}
	// The transport reuses the request buffer; the filled entry must still
	// be found under the real key.
	for i := range req {
		req[i] = 0xDB
	}
	before := svc.RemoteCacheServer().Stats().Hits
	if got, err := svc.Read(key); err != nil || !bytes.Equal(got, Digest(ValueFor(key, 2048))) {
		t.Fatalf("read after the request buffer was reused: %v", err)
	}
	if svc.RemoteCacheServer().Stats().Hits != before+1 {
		t.Fatal("the miss filled the cache under a key that changed with the request buffer")
	}
}

// TestOwnershipWriteThroughKeepsItsOwnCopy: the front door's write decode
// aliases the request, so a tier that keeps the row (Linked write-through)
// must be given a copy — reusing the request buffer must not change what
// the cache serves.
func TestOwnershipWriteThroughKeepsItsOwnCopy(t *testing.T) {
	svc, err := BuildKVService(smallCfg(Linked, meter.NewMeter()), smallGen(13))
	if err != nil {
		t.Fatal(err)
	}
	key := workload.KeyName(9)
	value := ValueFor("fresh", 2048)
	req := wire.Marshal(&remotecache.SetRequest{Key: key, Value: value})
	resp, err := svc.Front().Dispatch("app.Write", req)
	if err != nil {
		t.Fatal(err)
	}
	rpc.PutBuffer(resp)
	for i := range req {
		req[i] = 0xDB
	}
	got, ok := svc.LinkedCache().Get(key)
	if !ok || !bytes.Equal(got, value) {
		t.Fatal("the write-through entry aliases the request buffer")
	}
}
