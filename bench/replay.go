package main

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"time"

	"cachecost/internal/cache"
	"cachecost/internal/core"
	"cachecost/internal/flight"
	"cachecost/internal/linkedcache"
	"cachecost/internal/meter"
	"cachecost/internal/remotecache"
	"cachecost/internal/rpc"
	"cachecost/internal/storage"
	"cachecost/internal/storage/kv"
	"cachecost/internal/storage/plan"
	"cachecost/internal/storage/raft"
	"cachecost/internal/storage/sql"
	"cachecost/internal/telemetry"
	"cachecost/internal/trace"
	"cachecost/internal/wire"
	"cachecost/internal/workload"
)

// replayCalls is how many calls one timed batch of a hop replay makes;
// every replay reports the best of replayBatches batches.
const (
	replayCalls   = 200
	replayBatches = 5
)

// sink keeps replayed results alive so the compiler cannot drop a call.
var sink int

// timeCalls runs replayBatches batches of n/div calls of fn and returns
// the fastest batch's ns per call with the allocations per call of the
// last. The fastest, not the median: a replay times a layer with nothing
// else going on, and right after the parts it needs are built a GC cycle
// can tax three batches in five; what the collector and the neighbours
// add in situ shows in ledger.overhead instead. fn receives a call index
// that keeps counting across batches, so a replay walking a key list
// does not revisit a key it just warmed.
func (sp spec) timeCalls(n int, fn func(i int)) (ns, allocs float64) {
	n = max(n/max(sp.div, 1), 10)
	best := math.Inf(1)
	var ms0, ms1 runtime.MemStats
	for b := 0; b < replayBatches; b++ {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(b*n + i)
		}
		best = min(best, float64(time.Since(t0))/float64(n))
		runtime.ReadMemStats(&ms1)
	}
	return best, float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
}

func entrySize(k string, v []byte) int64 { return int64(len(k) + len(v) + 64) }

type noopSM struct{}

func (noopSM) Apply(raft.Command) {}

// replayKeys picks the keys a replay of span kind re-issues: those of
// the traced requests that made such a call, in order, or — when the
// workload never makes it, or runs over sockets where spans carry no
// request id — the window's own stream filtered by want.
func (r *runner) replayKeys(st *traceStats, kind uint8, want func(op uint32) bool) []uint32 {
	var keys []uint32
	for _, req := range st.reqsOf[kind] {
		keys = append(keys, r.tracedOps[req]>>1)
	}
	for _, op := range r.in.stream {
		if len(keys) >= replayBatches*replayCalls {
			break
		}
		if want(op) {
			keys = append(keys, op>>1)
		}
	}
	for len(keys) < replayBatches*replayCalls { // a read-only stream has no writes to offer
		keys = append(keys, r.in.stream[len(keys)%len(r.in.stream)]>>1)
	}
	return keys
}

func isRead(op uint32) bool  { return op&1 == 0 }
func isWrite(op uint32) bool { return op&1 == 1 }

// replay times each layer's exported functions alone, on the inputs the
// workload produced: its keys, its value sizes, its statement text. The
// default-cost hop replays run against the live deployment's own
// connections, in the order the trace saw the calls, so block-cache and
// cache-tier behaviour carry over; their zero-cost twins run against a
// second set of parts built with realCosts.
func (r *runner) replay(st *traceStats, seed int64) (map[string]float64, error) {
	out := map[string]float64{}
	in, sp, d := r.in, r.sp, r.d
	hot := r.replayKeys(st, kindCacheGet, isRead)
	value := in.values[hot[0]]
	key := func(ks []uint32, i int) uint32 { return ks[i%len(ks)] }

	// meter
	burner := meter.NewBurner()
	ns, _ := sp.timeCalls(100, func(int) { burner.Burn(64 << 10) })
	out["meter.burn_ns_per_kunit"] = ns / 64
	sm := meter.NewMeter()
	sm.SetThreadCPUClock(!sp.tcp) // the clock the workload's stopwatches read
	comp := sm.Component("replay")
	out["meter.stopwatch_ns"], _ = sp.timeCalls(20000, func(int) { comp.Start().Stop() })
	sm.SetThreadCPUClock(false)

	// wire: the cache hit's response message at this workload's value size.
	msg := &remotecache.GetResponse{Found: true, Value: value}
	var buf []byte
	out["wire.encode_ns"], _ = sp.timeCalls(2000, func(int) { buf = wire.AppendMarshal(buf[:0], msg) })
	var resp remotecache.GetResponse
	out["wire.decode_ns"], out["wire.decode_allocs"] = sp.timeCalls(2000, func(int) {
		if wire.Unmarshal(buf, &resp) != nil {
			sink++
		}
	})

	// rpc: a hit-shaped exchange (small request, value-sized response).
	req := wire.Marshal(&remotecache.GetRequest{Key: in.keys[hot[0]]})
	echo := func(c rpc.CostModel) *rpc.Server {
		srv := rpc.NewServer(comp, burner, c)
		srv.Handle("echo", func([]byte) ([]byte, error) { return buf, nil })
		return srv
	}
	call := func(conn rpc.Conn) func(int) {
		return func(int) {
			b, err := conn.Call("echo", req)
			if err != nil {
				sink++
			}
			rpc.PutBuffer(b)
		}
	}
	out["rpc.loopback_call_ns"], out["rpc.loopback_allocs"] = sp.timeCalls(1000,
		call(rpc.NewLoopback(echo(rpc.DefaultCost), comp, burner, rpc.DefaultCost)))
	out["rpc.loopback_real_ns"], _ = sp.timeCalls(1000,
		call(rpc.NewLoopback(echo(rpc.CostModel{}), comp, burner, rpc.CostModel{})))
	front := func(c rpc.CostModel) func(int) {
		srv := rpc.NewServer(comp, burner, c)
		srv.SetMeterHandlerBody(false)
		srv.HandleCtx("app.Read", func(trace.SpanContext, []byte) ([]byte, error) {
			return append(rpc.GetBuffer(), in.digests[0]...), nil
		})
		return func(int) {
			b, _ := srv.DispatchCtx(trace.SpanContext{}, "app.Read", req)
			rpc.PutBuffer(b)
		}
	}
	out["rpc.front_dispatch_ns"], out["rpc.front_dispatch_allocs"] = sp.timeCalls(2000, front(rpc.DefaultCost))
	out["rpc.front_dispatch_real_ns"], _ = sp.timeCalls(2000, front(rpc.CostModel{}))
	if err := replayTCP(sp, out, echo(rpc.CostModel{}), req); err != nil {
		return nil, err
	}

	// cache, linkedcache: in-process structures holding this workload's values.
	lru := cache.NewLRU[[]byte](1<<40, entrySize)
	lc := linkedcache.New(linkedcache.Config{CapacityBytes: 1 << 40}, entrySize)
	for _, k := range hot {
		lru.Put(in.keys[k], in.values[k])
		lc.Put(in.keys[k], in.values[k])
	}
	out["cache.lru_get_ns"], _ = sp.timeCalls(20000, func(i int) {
		if _, ok := lru.Get(in.keys[key(hot, i)]); !ok {
			sink++
		}
	})
	out["cache.lru_put_ns"], _ = sp.timeCalls(20000, func(i int) { k := key(hot, i); lru.Put(in.keys[k], in.values[k]) })
	out["linkedcache.get_hit_ns"], _ = sp.timeCalls(20000, func(i int) {
		if _, ok := lc.Get(in.keys[key(hot, i)]); !ok {
			sink++
		}
	})
	load := func(trace.SpanContext) ([]byte, error) { return nil, fmt.Errorf("bench: replayed hit missed") }
	out["linkedcache.getorload_hit_ns"], out["linkedcache.getorload_hit_allocs"] = sp.timeCalls(20000, func(i int) {
		if _, hit, _ := lc.GetOrLoadCtx(trace.SpanContext{}, in.keys[key(hot, i)], load); !hit {
			sink++
		}
	})
	out["linkedcache.put_ns"], _ = sp.timeCalls(20000, func(i int) { k := key(hot, i); lc.Put(in.keys[k], in.values[k]) })

	// Hops. The real-cost parts hold the whole population, like the live ones.
	realNode, realCache, err := newParts(spec{arch: core.Remote, blockFrac: sp.blockFrac, cacheFrac: sp.cacheFrac},
		in.items, meter.NewMeter(), nil, realCosts)
	if err != nil {
		return nil, err
	}
	liveCC := d.cc
	if liveCC == nil { // Base and Linked have no cache tier: time a fresh default one
		srv := remotecache.NewServer(remotecache.ServerConfig{CapacityBytes: 1 << 40, Meter: sm, RPCCost: rpc.DefaultCost})
		liveCC = rpc.NewLoopback(srv.RPCServer(), comp, burner, rpc.DefaultCost)
	}
	gets, sets, dels := hot, r.replayKeys(st, kindCacheSet, isRead), r.replayKeys(st, kindCacheDelete, isWrite)
	for _, side := range []struct {
		suffix string
		cc     rpc.Conn
	}{
		{"_ns", liveCC},
		{"_real_ns", rpc.NewLoopback(realCache.RPCServer(), nil, nil, rpc.CostModel{})},
	} {
		c := remotecache.NewSingleClient(side.cc)
		for _, k := range gets {
			if err := c.Set(in.keys[k], in.values[k]); err != nil {
				return nil, err
			}
		}
		// Building the real-cost parts and the sets above leave a
		// collection due; finish it now, or its mark assists tax every
		// value-sized allocation of the batches below (2.5x at 16 KB).
		runtime.GC()
		ns, allocs := sp.timeCalls(replayCalls, func(i int) {
			if _, found, _ := c.Get(in.keys[key(gets, i)]); !found {
				sink++
			}
		})
		out["remotecache.get_hit"+side.suffix] = ns
		out["remotecache.set"+side.suffix], _ = sp.timeCalls(replayCalls, func(i int) {
			k := key(sets, i)
			if c.Set(in.keys[k], in.values[k]) != nil {
				sink++
			}
		})
		out["remotecache.delete"+side.suffix], _ = sp.timeCalls(replayCalls, func(i int) {
			if _, err := c.Delete(in.keys[key(dels, i)]); err != nil {
				sink++
			}
		})
		if side.suffix == "_ns" {
			out["remotecache.get_hit_allocs"] = allocs
		}
	}
	// The cache server alone: no transport, no client decode.
	direct := rpc.NewDirect(realCache.RPCServer())
	realCache.Preload(in.keys[hot[0]], value)
	_, out["remotecache.server_get_allocs"] = sp.timeCalls(2000, func(int) {
		if _, err := direct.Call("cache.Get", req); err != nil {
			sink++
		}
	})

	queries, execs := r.replayKeys(st, kindQuery, isRead), r.replayKeys(st, kindExec, isWrite)
	for _, side := range []struct {
		suffix string
		db     rpc.Conn
	}{
		{"_ns", d.db},
		{"_real_ns", rpc.NewLoopback(realNode.Server(), nil, nil, rpc.CostModel{})},
	} {
		c := storage.NewClient(side.db)
		ns, allocs := sp.timeCalls(replayCalls, func(i int) {
			rs, err := c.Query("SELECT v FROM kvdata WHERE k = ?", sql.Text(in.keys[key(queries, i)]))
			if err != nil || len(rs.Rows) != 1 {
				sink++
			}
		})
		out["storage.query"+side.suffix] = ns
		ens, eallocs := sp.timeCalls(replayCalls, func(i int) {
			k := key(execs, i)
			if _, err := c.Exec("UPDATE kvdata SET v = ? WHERE k = ?", sql.Blob(in.values[k]), sql.Text(in.keys[k])); err != nil {
				sink++
			}
		})
		out["storage.exec"+side.suffix] = ens
		if side.suffix == "_ns" {
			out["storage.query_allocs"], out["storage.exec_allocs"] = allocs, eallocs
		}
	}

	// storage's inner layers, standalone.
	const selectSQL = "SELECT v FROM kvdata WHERE k = ?"
	out["storage.sql.parse_ns"], out["storage.sql.parse_allocs"] = sp.timeCalls(2000, func(int) {
		if _, err := sql.Parse(selectSQL); err != nil {
			sink++
		}
	})
	db := plan.NewDB(kv.NewStore(kv.Config{CacheBytes: 1 << 30}))
	store := kv.NewStore(kv.Config{CacheBytes: 1 << 30})
	if _, err := db.ExecSQL("CREATE TABLE kvdata (k TEXT PRIMARY KEY, v BLOB)"); err != nil {
		return nil, err
	}
	loaded := map[uint32]bool{}
	for _, k := range append(append([]uint32{}, queries...), execs...) {
		if loaded[k] {
			continue
		}
		loaded[k] = true
		if _, err := db.ExecSQL("INSERT INTO kvdata (k, v) VALUES (?, ?)", sql.Text(in.keys[k]), sql.Blob(in.values[k])); err != nil {
			return nil, err
		}
		store.Put([]byte(in.keys[k]), in.values[k])
	}
	stmt, err := sql.Parse(selectSQL)
	if err != nil {
		return nil, err
	}
	out["storage.plan.point_select_ns"], _ = sp.timeCalls(2000, func(i int) {
		rs, err := db.Exec(stmt, []sql.Value{sql.Text(in.keys[key(queries, i)])})
		if err != nil || len(rs.Rows) != 1 {
			sink++
		}
	})
	out["storage.kv.get_ns"], _ = sp.timeCalls(5000, func(i int) {
		if _, _, ok := store.Get([]byte(in.keys[key(queries, i)])); !ok {
			sink++
		}
	})
	out["storage.kv.put_ns"], _ = sp.timeCalls(2000, func(i int) { k := key(execs, i); store.Put([]byte(in.keys[k]), in.values[k]) })
	group := raft.NewGroup(raft.Config{Replicas: 3, Comp: comp, Burner: burner}, func(int) raft.StateMachine { return noopSM{} })
	out["storage.raft.propose_ns"], _ = sp.timeCalls(1000, func(i int) {
		k := key(execs, i)
		if _, err := group.Propose(raft.Command{Op: raft.OpPut, Key: []byte(in.keys[k]), Value: in.values[k]}); err != nil {
			sink++
		}
	})

	// The observability plane.
	hist := telemetry.NewRegistry().Histogram("bench.replay", "seconds")
	out["telemetry.observe_ns"], _ = sp.timeCalls(50000, func(i int) { hist.Observe(int64(i)) })
	fr := flight.New(flight.Config{SlowestK: 4, RingSize: 1024})
	start := time.Now()
	for i := 0; i < 8; i++ { // park the retention threshold above the timed requests
		fr.Done(fr.Begin(trace.SpanContext{}), "Bench", "bench.Op", start, time.Second, nil)
	}
	out["flight.fastpath_ns"], out["flight.fastpath_allocs"] = sp.timeCalls(20000, func(int) {
		fr.Done(fr.Begin(trace.SpanContext{}), "Bench", "bench.Op", start, time.Microsecond, nil)
	})
	plane, err := replayPlane(sp, value)
	if err != nil {
		return nil, err
	}
	out["telemetry.plane_ns_per_op"] = plane

	gen := newGenerator(sp, seed)
	out["workload.next_ns"], _ = sp.timeCalls(20000, func(int) { sink += len(gen.Next().Key) })
	return out, nil
}

// replayTCP times a hit-shaped call over a real loopback socket, and the
// rate two callers sharing one rpc.Client reach.
func replayTCP(sp spec, out map[string]float64, srv *rpc.Server, req []byte) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	done := make(chan struct{})
	go func() { srv.Serve(l); close(done) }()
	defer func() { srv.Close(); <-done }()
	c, err := rpc.Dial(l.Addr().String(), nil, nil, rpc.CostModel{})
	if err != nil {
		return err
	}
	defer c.Close()
	call := func(int) {
		if _, err := c.Call("echo", req); err != nil {
			sink++
		}
	}
	out["rpc.tcp_call_ns"], out["rpc.tcp_call_allocs"] = sp.timeCalls(1000, call)
	perCaller := max(2000/max(sp.div, 1), 10)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				call(i)
			}
		}()
	}
	wg.Wait()
	out["rpc.tcp_shared_conn_calls_s"] = float64(2*perCaller) / time.Since(t0).Seconds()
	return nil
}

// replayPlane prices the observability plane on the path it is budgeted
// against: a Linked hit with a telemetry registry and flight recorder
// armed, minus the same hit with neither.
func replayPlane(sp spec, value []byte) (float64, error) {
	const keys = 256
	var ns [2]float64
	for armed := 0; armed < 2; armed++ {
		cfg := core.ServiceConfig{Arch: core.Linked, Meter: meter.NewMeter(), AppCacheBytes: 1 << 30}
		if armed == 1 {
			cfg.Telemetry = telemetry.NewRegistry()
			cfg.Flight = flight.New(flight.Config{})
		}
		gen := workload.NewSynthetic(workload.SyntheticConfig{Keys: keys, ValueSize: len(value), Seed: 1})
		svc, err := core.BuildKVService(cfg, gen)
		if err != nil {
			return 0, err
		}
		read := func(i int) {
			if _, err := svc.Read(workload.KeyName(i % keys)); err != nil {
				sink++
			}
		}
		for i := 0; i < keys; i++ {
			read(i)
		}
		ns[armed], _ = sp.timeCalls(5000, read)
	}
	return ns[1] - ns[0], nil
}
