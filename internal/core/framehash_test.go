package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"cachecost/internal/meter"
	"cachecost/internal/remotecache"
	"cachecost/internal/rpc"
	"cachecost/internal/storage"
	"cachecost/internal/trace"
	"cachecost/internal/workload"
)

// hashConn forwards every call to next and folds the method, the request
// and the response (or the error) into h, each length-prefixed, so two
// runs hash equal only if they put the same frames on the wire in the
// same order.
type hashConn struct {
	next rpc.TraceConn
	h    hash.Hash64
}

func (c *hashConn) Call(method string, req []byte) ([]byte, error) {
	return c.CallCtx(trace.SpanContext{}, method, req)
}

func (c *hashConn) CallCtx(sc trace.SpanContext, method string, req []byte) ([]byte, error) {
	c.field([]byte(method))
	c.field(req)
	resp, err := c.next.CallCtx(sc, method, req)
	if err != nil {
		c.field([]byte("error: " + err.Error()))
	} else {
		c.field(resp)
	}
	return resp, err
}

func (c *hashConn) field(b []byte) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
	c.h.Write(n[:])
	c.h.Write(b)
}

func (c *hashConn) Close() error { return c.next.Close() }

// TestRemoteFramesUnchanged pins every frame a single-node Remote
// deployment exchanges with its storage node and its cache node over
// TestMeteredOpsUnchanged's 1,000-op stream: the preload, then the stream
// one op per request (B=1) or as batches of eight (B=8). Both endpoints
// are loopbacks under a hashConn, so a change to what the cache client or
// the storage client sends, in what order, or to what the nodes answer,
// changes the hash. A refactor of either client must leave both pins as
// they are. The cache pins moved once, when cache.Set and cache.MultiSet
// lost their always-zero field 3 (ttl_ms): the old frames with those two
// bytes stripped hash to the new pins.
func TestRemoteFramesUnchanged(t *testing.T) {
	for _, tc := range []struct {
		batch          int
		storage, cache uint64
	}{
		{1, 0x8e7304d382219842, 0x6e4dfc8e8ab66b13},
		{8, 0x301b40077df6cbf6, 0x9c7e1b66bcd0f46a},
	} {
		m := meter.NewMeter()
		node := storage.NewNode(storage.Config{BlockCacheBytes: 256 << 10, Meter: m})
		cache := remotecache.NewServer(remotecache.ServerConfig{
			CapacityBytes: 256 << 10, Meter: m, Name: "remotecache", RPCCost: rpc.DefaultCost,
		})
		app := m.Component("app")
		db := &hashConn{next: rpc.NewLoopback(node.Server(), app, meter.NewBurner(), rpc.DefaultCost), h: fnv.New64a()}
		cc := &hashConn{next: rpc.NewLoopback(cache.RPCServer(), app, meter.NewBurner(), rpc.DefaultCost), h: fnv.New64a()}
		svc, err := NewKVServiceRemote(smallCfg(Remote, m), RemoteEndpoints{DB: db, Cache: cc})
		if err != nil {
			t.Fatal(err)
		}
		gen := smallGen(13)
		items, err := PreloadItems(gen)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Preload(items); err != nil {
			t.Fatal(err)
		}
		ops := make([]workload.Op, 1000)
		for i := range ops {
			ops[i] = gen.Next()
		}
		for i := 0; i < len(ops); i += tc.batch {
			chunk := ops[i:min(i+tc.batch, len(ops))]
			if tc.batch == 1 {
				op := chunk[0]
				if op.Kind == workload.Read {
					_, err = svc.Read(op.Key)
				} else {
					err = svc.Write(op.Key, ValueFor(op.Key, op.ValueSize))
				}
			} else {
				err = applyBatch(svc, chunk)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if got := [2]uint64{db.h.Sum64(), cc.h.Sum64()}; got != [2]uint64{tc.storage, tc.cache} {
			t.Errorf("B=%d: frame hashes storage %#x, cache %#x; want %#x, %#x",
				tc.batch, got[0], got[1], tc.storage, tc.cache)
		}
	}
}
