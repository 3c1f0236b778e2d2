package remotecache

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cachecost/internal/cluster"
	"cachecost/internal/fault"
	"cachecost/internal/meter"
	"cachecost/internal/rpc"
	"cachecost/internal/shardmgr"
	"cachecost/internal/telemetry"
	"cachecost/internal/trace"
)

// routedFixture is a cache tier of nodes c0, c1, … behind a shard map.
type routedFixture struct {
	smap    *cluster.ShardMap
	servers map[string]*Server
	client  *Client
}

func newRoutedFixture(t *testing.T, n, shards int, inj *fault.Injector) *routedFixture {
	t.Helper()
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = "c" + strconv.Itoa(i)
	}
	smap, err := cluster.NewShardMap(shards, nodes, 64)
	if err != nil {
		t.Fatal(err)
	}
	servers := make(map[string]*Server, len(nodes))
	conns := make(map[string]rpc.Conn, len(nodes))
	for _, n := range nodes {
		srv := NewServer(ServerConfig{CapacityBytes: 1 << 20, Name: "remotecache." + n})
		servers[n] = srv
		var conn rpc.Conn = rpc.NewDirect(srv.RPCServer())
		if inj != nil {
			conn = inj.WrapWorker(n, -1, conn)
		}
		conns[n] = conn
	}
	c, err := NewRoutedClient(conns, smap)
	if err != nil {
		t.Fatal(err)
	}
	return &routedFixture{smap: smap, servers: servers, client: c}
}

func TestRoutedGetSetDelete(t *testing.T) {
	f := newRoutedFixture(t, 4, 16, nil)
	c := f.client
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
	// The entry lives on the shard's primary under an epoch-stamped key.
	pl := f.smap.Placement(f.smap.ShardOf("k"))
	if _, ok := f.servers[pl.Primary()].store.Get(cluster.EpochKey(pl.Epoch, "k")); !ok {
		t.Fatalf("primary %s does not hold the epoch-stamped entry", pl.Primary())
	}
	if existed, err := c.Delete("k"); err != nil || !existed {
		t.Fatalf("delete = %v %v", existed, err)
	}
	if _, found, _ := c.Get("k"); found {
		t.Fatal("get after delete")
	}
}

// Writes fan out to every replica and deletes clear every replica, so a
// read served by ANY replica is never stale.
func TestRoutedReplicaFanout(t *testing.T) {
	f := newRoutedFixture(t, 4, 16, nil)
	c := f.client
	key := "celebrity"
	shard := f.smap.ShardOf(key)
	for _, n := range f.smap.Nodes() {
		f.smap.Replicate(shard, n) // idempotent-ish: primary refuses, others join
	}
	pl := f.smap.Placement(shard)
	if len(pl.Replicas) != 4 {
		t.Fatalf("setup: %d replicas", len(pl.Replicas))
	}
	if err := c.Set(key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Every replica must hold the value — the read path may pick any.
	ek := cluster.EpochKey(pl.Epoch, key)
	for _, n := range pl.Replicas {
		if v, ok := f.servers[n].store.Get(ek); !ok || string(v) != "v1" {
			t.Fatalf("replica %s: %q %v", n, v, ok)
		}
	}
	// Overwrite, then read many times: no stale v1 from any replica.
	if err := c.Set(key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		v, found, err := c.Get(key)
		if err != nil || !found || string(v) != "v2" {
			t.Fatalf("read %d: %q %v %v", i, v, found, err)
		}
	}
	// P2C actually spreads reads: with 4 replicas and 200 reads, more
	// than one node must have served traffic.
	served := 0
	for _, n := range pl.Replicas {
		if f.servers[n].Ops() > 10 {
			served++
		}
	}
	if served < 2 {
		t.Fatalf("reads did not spread over replicas (served=%d)", served)
	}
	if existed, err := c.Delete(key); err != nil || !existed {
		t.Fatalf("delete = %v %v", existed, err)
	}
	for _, n := range pl.Replicas {
		if _, ok := f.servers[n].store.Get(ek); ok {
			t.Fatalf("replica %s still holds deleted entry", n)
		}
	}
}

// The double-read handoff: during a migration a read that misses the
// new primary is served from the old primary at its old epoch and
// copied forward; after cutover the old node's entries are unreachable
// (superseded epoch), and a write made during the handoff survives it.
func TestRoutedHandoffDoubleRead(t *testing.T) {
	reg := telemetry.NewRegistry()
	f := newRoutedFixture(t, 4, 16, nil)
	c := f.client
	c.SetTelemetry(reg)
	key := "moving"
	shard := f.smap.ShardOf(key)
	if err := c.Set(key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	oldPrimary := f.smap.Placement(shard).Primary()
	var target string
	for _, n := range f.smap.Nodes() {
		if n != oldPrimary {
			target = n
			break
		}
	}
	if !f.smap.BeginMigration(shard, target) {
		t.Fatal("BeginMigration refused")
	}
	// First read: new primary is cold → double-read old, copy forward.
	v, found, err := c.Get(key)
	if err != nil || !found || string(v) != "v1" {
		t.Fatalf("handoff read = %q %v %v", v, found, err)
	}
	if got := reg.Counter("cache.client.handoff_reads").Value(); got != 1 {
		t.Fatalf("handoff_reads = %d, want 1", got)
	}
	// Second read hits the warmed new primary — no further double-read.
	if _, found, _ := c.Get(key); !found {
		t.Fatal("copy-forward did not warm the new primary")
	}
	if got := reg.Counter("cache.client.handoff_reads").Value(); got != 1 {
		t.Fatalf("handoff_reads after warm read = %d, want 1", got)
	}
	// A write during the handoff invalidates the old copy and lands on
	// the new primary; it must survive cutover.
	if err := c.Set(key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if !f.smap.FinishMigration(shard) {
		t.Fatal("FinishMigration refused")
	}
	v, found, err = c.Get(key)
	if err != nil || !found || string(v) != "v2" {
		t.Fatalf("post-cutover read = %q %v %v", v, found, err)
	}
	pl := f.smap.Placement(shard)
	if pl.Primary() != target {
		t.Fatalf("primary after cutover = %s, want %s", pl.Primary(), target)
	}
	// The old node still physically holds its entry — but under the
	// superseded epoch stamp, where no reader will ever look.
	if _, ok := f.servers[oldPrimary].store.Get(cluster.EpochKey(pl.Epoch-1, key)); !ok {
		t.Log("old entry already evicted (fine)") // deleted by the v2 write
	}
	if _, ok := f.servers[oldPrimary].store.Get(cluster.EpochKey(pl.Epoch, key)); ok {
		t.Fatal("old node holds an entry under the NEW epoch")
	}
}

// parseVersion extracts N from a "key@vN" test value.
func parseVersion(t testing.TB, v string) int {
	t.Helper()
	i := strings.LastIndex(v, "@v")
	if i < 0 {
		t.Fatalf("unversioned value %q", v)
	}
	n, err := strconv.Atoi(v[i+2:])
	if err != nil {
		t.Fatalf("bad version in %q: %v", v, err)
	}
	return n
}

// The no-lost-acknowledged-write chaos drill: kill the OLD primary in
// the middle of a handoff. Reads may demote to misses (the dip the caller
// absorbs from storage) but must never return a value older than the
// last acknowledged write. Run with -race.
func TestRoutedKillOldNodeMidMigration(t *testing.T) {
	inj := fault.New(1, nil)
	f := newRoutedFixture(t, 4, 16, inj)
	c := f.client
	m := meter.NewMeter()
	// get is c.Get on a request lane of its own, so demotions count into
	// m.Path.
	get := func(key string) (v []byte, found bool, err error) {
		onLane(m, func(sc trace.SpanContext) {
			var held []byte
			v, held, found, err = c.BorrowCtx(sc, key)
			v = append([]byte(nil), v...)
			rpc.PutBuffer(held)
		})
		return v, found, err
	}

	// storage is the source of truth the cache fronts; version counts
	// the writes begun on each key and acked the writes whose Set has
	// returned, so every read can assert it observed nothing older than
	// acknowledged state. A write in flight is not acknowledged: a read
	// racing it may still see the previous value.
	var mu sync.Mutex
	storage := map[string]string{}
	version := map[string]int{}
	acked := map[string]int{}

	write := func(key string) {
		mu.Lock()
		version[key]++
		n := version[key]
		val := fmt.Sprintf("%s@v%d", key, n)
		storage[key] = val
		mu.Unlock()
		// Lookaside write-through: storage first, then cache (fan-out +
		// old-primary invalidation). Cache errors are no-ops.
		if err := c.Set(key, []byte(val)); err != nil {
			t.Fatalf("set %s: %v", key, err)
		}
		mu.Lock()
		if n > acked[key] {
			acked[key] = n
		}
		mu.Unlock()
	}
	read := func(key string) {
		v, found, err := get(key)
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		mu.Lock()
		want := storage[key]
		mu.Unlock()
		if found && string(v) != want {
			t.Fatalf("STALE READ: %s = %q, storage has %q", key, v, want)
		}
		if !found {
			// Miss: lookaside refill from storage, like the service would.
			if err := c.Set(key, []byte(want)); err != nil {
				t.Fatalf("refill %s: %v", key, err)
			}
		}
	}

	keys := make([]string, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%02d", i)
		write(keys[i])
	}
	// Pick a key and migrate its shard; kill the old primary while the
	// double-read window is open.
	key := keys[7]
	shard := f.smap.ShardOf(key)
	oldPrimary := f.smap.Placement(shard).Primary()
	var target string
	for _, n := range f.smap.Nodes() {
		if n != oldPrimary {
			target = n
			break
		}
	}
	if !f.smap.BeginMigration(shard, target) {
		t.Fatal("BeginMigration refused")
	}
	read(key) // double-read serves from old, copies forward

	inj.Kill(oldPrimary)

	// Writes and reads during the outage, concurrently, under -race:
	// every read must see current-or-miss, never stale.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := keys[(g*13+i)%len(keys)]
				mu.Lock()
				vBefore := acked[k]
				mu.Unlock()
				v, found, err := get(k)
				if err != nil {
					t.Errorf("get %s: %v", k, err)
					return
				}
				if found {
					// Stale = older than any write acknowledged BEFORE this
					// read began. A concurrent writer may have advanced the
					// key since, so equality with current storage is too
					// strict; the version ordering is the real invariant.
					got := parseVersion(t, string(v))
					if got < vBefore {
						t.Errorf("STALE READ %s = %q (v%d) but v%d was acked before the read",
							k, v, got, vBefore)
						return
					}
				}
			}
		}(g)
	}
	// Single writer mutating the migrating key's shard during the kill.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			write(key)
		}
	}()
	wg.Wait()

	// After the dust settles: the acknowledged value must be readable
	// (or a miss) — never an older version.
	read(key)
	if !f.smap.FinishMigration(shard) {
		t.Fatal("FinishMigration refused")
	}
	inj.Revive(oldPrimary)
	// Post-cutover, post-revival: the old node's surviving entries are
	// stamped with the superseded epoch — unreachable. Reads still
	// return only the current value.
	for i := 0; i < 10; i++ {
		read(key)
		write(key)
	}
	read(key)
	if got := m.Path().Degraded; got == 0 {
		t.Fatal("kill window demoted nothing — the fault never bit")
	}
}

// Concurrent reads and writes against a map being actively reshaped
// must stay linearizable-per-key under -race: this is the test that
// proves Placement snapshots + epoch stamps make stale routing
// harmless.
func TestRoutedConcurrentReshape(t *testing.T) {
	f := newRoutedFixture(t, 4, 8, nil)
	c := f.client
	var stop sync.WaitGroup
	done := make(chan struct{})
	// Mutator: replicate/unreplicate/migrate continuously.
	stop.Add(1)
	go func() {
		defer stop.Done()
		nodes := f.smap.Nodes()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			s := i % f.smap.Shards()
			n := nodes[i%len(nodes)]
			switch i % 4 {
			case 0:
				f.smap.Replicate(s, n)
			case 1:
				f.smap.Unreplicate(s, n)
			case 2:
				if f.smap.BeginMigration(s, n) {
					f.smap.FinishMigration(s)
				}
			case 3:
				f.smap.Placement(s)
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := fmt.Sprintf("key%d-%d", g, i%20)
				val := fmt.Sprintf("%s=%d", k, i)
				if err := c.Set(k, []byte(val)); err != nil {
					t.Errorf("set: %v", err)
					return
				}
				v, found, err := c.Get(k)
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				// A concurrent reshape may have dropped the entry (epoch
				// bump = cold cache) — a miss is fine; a WRONG value is not.
				// Only this goroutine writes k, so found ⇒ exact match.
				if found && string(v) != val {
					t.Errorf("stale: %s = %q want %q", k, v, val)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	stop.Wait()
}

// The detector's serve-path cost, measured end-to-end: cache.Get
// through the server with the hot-key feed on vs off.
func BenchmarkServerGetDetector(b *testing.B) {
	run := func(b *testing.B, hot KeyRecorder) {
		srv := NewServer(ServerConfig{CapacityBytes: 1 << 20, Hot: hot})
		c := NewSingleClient(rpc.NewDirect(srv.RPCServer()))
		keys := make([]string, 256)
		for i := range keys {
			keys[i] = fmt.Sprintf("key%03d", i)
			if err := c.Set(keys[i], []byte("value")); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := c.Get(keys[i&255]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) { run(b, shardmgr.NewDetector(32)) })
}
