package remotecache

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"

	"cachecost/internal/cluster"
	"cachecost/internal/meter"
	"cachecost/internal/rpc"
)

func newNode(t *testing.T, m *meter.Meter, capacity int64) *Server {
	t.Helper()
	return NewServer(ServerConfig{CapacityBytes: capacity, Meter: m, RPCCost: rpc.DefaultCost})
}

func TestGetSetDeleteLoopback(t *testing.T) {
	srv := newNode(t, nil, 1<<20)
	c := NewSingleClient(rpc.NewLoopback(srv.RPCServer(), nil, nil, rpc.CostModel{}))

	if _, found, err := c.Get("k"); err != nil || found {
		t.Fatalf("empty get = %v %v", found, err)
	}
	if err := c.Set("k", []byte("value")); err != nil {
		t.Fatal(err)
	}
	v, found, err := c.Get("k")
	if err != nil || !found || string(v) != "value" {
		t.Fatalf("get = %q %v %v", v, found, err)
	}
	existed, err := c.Delete("k")
	if err != nil || !existed {
		t.Fatalf("delete = %v %v", existed, err)
	}
	if existed, _ := c.Delete("k"); existed {
		t.Fatal("double delete should report absence")
	}
}

func TestEvictionUnderPressure(t *testing.T) {
	srv := newNode(t, nil, 4<<10)
	c := NewSingleClient(rpc.NewDirect(srv.RPCServer()))
	for i := 0; i < 100; i++ {
		if err := c.Set(fmt.Sprintf("k%d", i), make([]byte, 256)); err != nil {
			t.Fatal(err)
		}
	}
	if srv.UsedBytes() > 4<<10 {
		t.Fatalf("used %d exceeds capacity", srv.UsedBytes())
	}
	if srv.Stats().Evictions == 0 {
		t.Fatal("expected evictions")
	}
}

// A routed client shards keys across nodes through the shard map: every
// key reads back, each lives on its shard's primary, and every node gets
// a share of the population.
func TestShardingAcrossNodes(t *testing.T) {
	f := newRoutedFixture(t, 3, 16, nil)
	c := f.client
	const n = 300
	for i := 0; i < n; i++ {
		if err := c.Set(fmt.Sprintf("key-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		if _, found, err := c.Get(k); err != nil || !found {
			t.Fatalf("%s: found=%v err=%v", k, found, err)
		}
		pl := f.smap.Placement(f.smap.ShardOf(k))
		if _, ok := f.servers[pl.Primary()].store.Get(cluster.EpochKey(pl.Epoch, k)); !ok {
			t.Fatalf("%s is not on its shard's primary %s", k, pl.Primary())
		}
	}
	for name, node := range f.servers {
		if node.Stats().Puts == 0 {
			t.Fatalf("node %s received no keys; sharding broken", name)
		}
	}
}

func TestMeteringAndMemoryProvision(t *testing.T) {
	m := meter.NewMeter()
	srv := NewServer(ServerConfig{CapacityBytes: 6 << 30, Meter: m, Name: "remotecache", RPCCost: rpc.DefaultCost})
	c := NewSingleClient(rpc.NewLoopback(srv.RPCServer(), m.Component("app"), meter.NewBurner(), rpc.DefaultCost))
	payload := make([]byte, 8<<10)
	for i := 0; i < 50; i++ {
		c.Set(fmt.Sprintf("k%d", i), payload)
		c.Get(fmt.Sprintf("k%d", i))
	}
	if m.Component("remotecache").Busy() <= 0 {
		t.Fatal("cache node CPU should be metered")
	}
	if m.Component("app").Busy() <= 0 {
		t.Fatal("client-side RPC overhead should be metered")
	}
	if got := m.Component("remotecache").MemBytes(); got != 6<<30 {
		t.Fatalf("provisioned mem = %d", got)
	}
}

func TestOverTCP(t *testing.T) {
	srv := newNode(t, nil, 1<<20)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.RPCServer().Serve(l)
	defer srv.RPCServer().Close()

	conn, err := rpc.Dial(l.Addr().String(), nil, nil, rpc.CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := NewSingleClient(conn)

	if err := c.Set("tcp-key", bytes.Repeat([]byte("x"), 10000)); err != nil {
		t.Fatal(err)
	}
	v, found, err := c.Get("tcp-key")
	if err != nil || !found || len(v) != 10000 {
		t.Fatalf("tcp get = %d bytes, %v, %v", len(v), found, err)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv := newNode(t, nil, 8<<20)
	c := NewSingleClient(rpc.NewDirect(srv.RPCServer()))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i%20)
				switch i % 3 {
				case 0:
					c.Set(key, []byte("v"))
				case 1:
					c.Get(key)
				case 2:
					c.Delete(key)
				}
			}
		}(w)
	}
	wg.Wait() // run with -race
}

// A routed client is built only over exactly the shard map's nodes: no
// map, a node without a connection, or a connection without a node is an
// error at construction, so no request can find a node unconnected.
func TestEmptyClientErrors(t *testing.T) {
	smap, err := cluster.NewShardMap(4, []string{"c0", "c1"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	conn := rpc.NewDirect(newNode(t, nil, 1<<20).RPCServer())
	for name, tc := range map[string]struct {
		conns map[string]rpc.Conn
		smap  *cluster.ShardMap
	}{
		"no map":         {map[string]rpc.Conn{"c0": conn}, nil},
		"no connections": {nil, smap},
		"missing node":   {map[string]rpc.Conn{"c0": conn}, smap},
		"unknown node":   {map[string]rpc.Conn{"c0": conn, "c9": conn}, smap},
		"extra node":     {map[string]rpc.Conn{"c0": conn, "c1": conn, "c9": conn}, smap},
	} {
		if c, err := NewRoutedClient(tc.conns, tc.smap); err == nil || c != nil {
			t.Errorf("%s: NewRoutedClient = %v, %v; want an error", name, c, err)
		}
	}
	if _, err := NewRoutedClient(map[string]rpc.Conn{"c0": conn, "c1": conn}, smap); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRemoteGet1KB(b *testing.B) {
	srv := NewServer(ServerConfig{CapacityBytes: 64 << 20})
	c := NewSingleClient(rpc.NewLoopback(srv.RPCServer(), nil, nil, rpc.DefaultCost))
	c.Set("k", make([]byte, 1024))
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found, err := c.Get("k"); err != nil || !found {
			b.Fatal(err)
		}
	}
}

func TestServerResizeRepricesMeter(t *testing.T) {
	m := meter.NewMeter()
	srv := newNode(t, m, 64<<10)
	comp := m.Component("remotecache")
	c := NewSingleClient(rpc.NewLoopback(srv.RPCServer(), nil, nil, rpc.CostModel{}))
	for i := 0; i < 200; i++ {
		c.Set(fmt.Sprintf("k%d", i), bytes.Repeat([]byte("x"), 400))
	}

	srv.Resize(8 << 10)
	if srv.Capacity() != 8<<10 || srv.UsedBytes() > 8<<10 {
		t.Fatalf("shrink: capacity=%d used=%d", srv.Capacity(), srv.UsedBytes())
	}
	if got := comp.MemBytes(); got != 8<<10 {
		t.Fatalf("metered mem after shrink = %d, want %d", got, 8<<10)
	}
	srv.Resize(1 << 20)
	if got := comp.MemBytes(); got != 1<<20 {
		t.Fatalf("metered mem after grow = %d, want %d", got, 1<<20)
	}
	// The node still serves after resizing both ways.
	if err := c.Set("post", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, found, err := c.Get("post"); err != nil || !found || string(v) != "v" {
		t.Fatalf("get after resize = %q %v %v", v, found, err)
	}
}
