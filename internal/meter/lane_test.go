package meter_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cachecost/internal/core"
	"cachecost/internal/meter"
	"cachecost/internal/rpc"
	"cachecost/internal/trace"
	"cachecost/internal/workload"
)

// tickClock is a busy clock that advances one nanosecond per read, so
// every lap is the number of reads it spans and nothing depends on the
// machine. reads is the number of reads so far.
type tickClock struct{ reads atomic.Int64 }

func (c *tickClock) now() int64 { return c.reads.Add(1) }

func tickMeter() (*meter.Meter, *tickClock) {
	m, c := meter.NewMeter(), &tickClock{}
	m.SetClock(c.now)
	return m, c
}

func totalBusy(m *meter.Meter) time.Duration {
	var sum time.Duration
	for _, s := range m.Snapshot() {
		sum += s.Busy
	}
	return sum
}

// TestLanePartitionExact: the laps of a lane partition its busy clock.
// With a clock that ticks once per read, the sum of every component's
// busy time equals the lane's elapsed busy time exactly — under nesting,
// re-entry of the current component, an excluded self-metering leaf and a
// parked stretch — and each component gets exactly its own laps.
func TestLanePartitionExact(t *testing.T) {
	m, clk := tickMeter()
	app, db, kv := m.Component("app"), m.Component("db"), m.Component("db.kv")
	burner := meter.NewBurner()

	l := meter.OpenLane(app) // read 1
	p1 := l.Enter(app)       // current component: free
	if got := clk.reads.Load(); got != 1 {
		t.Fatalf("entering the current component read the clock: %d reads", got)
	}
	p2 := l.Enter(db) // read 2: app gets 1
	l.Burn(db, burner, 64)
	sw := kv.Start() // read 3: a context-free leaf meters itself
	d := sw.Stop()   // read 4: kv gets 1
	l.Exclude(d)
	l.Park()    // read 5: db gets 5-2-1 = 2
	clk.now()   // read 6: blocked time, nobody's
	clk.now()   // read 7
	l.Unpark()  // read 8
	l.Leave(p2) // read 9: db gets 1
	l.Leave(p1) // app to app: free
	l.Burn(nil, burner, 64)
	elapsed := l.Close() // read 10: app gets 1

	if got := clk.reads.Load(); got != 10 {
		t.Fatalf("clock reads = %d, want 10", got)
	}
	for _, w := range []struct {
		name string
		c    *meter.Component
		busy time.Duration
		ops  int64
	}{{"app", app, 2, 0}, {"db", db, 3, 1}, {"kv", kv, 1, 1}} {
		if w.c.Busy() != w.busy || w.c.Ops() != w.ops {
			t.Errorf("%s: busy %d ops %d, want %d and %d", w.name, w.c.Busy(), w.c.Ops(), w.busy, w.ops)
		}
	}
	if sum := totalBusy(m); sum != elapsed || elapsed != 6 {
		t.Fatalf("sum of component busy %d, lane elapsed %d, want both 6", sum, elapsed)
	}
}

// TestLaneNilSafe: code handed a context without a lane calls the same
// methods; Burn falls back to the component's own stopwatch.
func TestLaneNilSafe(t *testing.T) {
	m, clk := tickMeter()
	c := m.Component("c")
	var l *meter.Lane
	l.Leave(l.Enter(c))
	l.Park()
	l.Unpark()
	l.Exclude(time.Second)
	l.Arm()
	l.AddStage(meter.StageCache, l.StageClock())
	l.CountDeadline()
	l.CountHop()
	if l.Close() != 0 || clk.reads.Load() != 0 || l.Flags() != 0 || l.Stages() != [meter.NumStages]int64{} {
		t.Fatal("a nil lane must read no clock and report no time")
	}
	l.Burn(c, meter.NewBurner(), 64)
	if c.Busy() != 1 || c.Ops() != 1 {
		t.Fatalf("laneless burn: busy %d ops %d, want a stopwatch pair's 1 and 1", c.Busy(), c.Ops())
	}
}

// TestPathCountersAndReset: a lane's path counts reach its meter when it
// closes, every field in its place, its outcome flags are read off the
// fault-path counts, and Reset zeroes them.
func TestPathCountersAndReset(t *testing.T) {
	m := meter.NewMeter()
	l := meter.OpenLane(m.Component("app"))
	l.CountRequest()
	l.CountHop()
	l.CountHop()
	l.CountCacheMsgs(2)
	l.CountStatement()
	l.CountRaftShips(2)
	l.CountCacheHit(true)
	l.CountCacheHit(false)
	l.CountLinkedHit(true)
	l.CountLinkedHit(false)
	l.CountFault()
	if l.Flags() != 0 {
		t.Fatalf("flags %b before any fault-path event", l.Flags())
	}
	l.CountDegraded()
	l.CountDegraded()
	for i := 0; i < 3; i++ {
		l.CountRetry()
	}
	l.CountDeadline()
	l.CountDeadline()
	if want := meter.FlagDeadline | meter.FlagDegraded; l.Flags() != want {
		t.Fatalf("flags = %b, want %b", l.Flags(), want)
	}
	if got := m.Path(); got != (meter.PathStats{}) {
		t.Fatalf("an open lane's counts reached the meter: %+v", got)
	}
	l.Close()
	want := meter.PathStats{Requests: 1, RPCHops: 2, CacheMsgs: 2, SQLStatements: 1, RaftShips: 2,
		CacheHits: 1, CacheMisses: 1, LinkedHits: 1, LinkedMisses: 1, Faults: 1,
		Degraded: 2, Retries: 3, Deadline: 2}
	if got := m.Path(); got != want {
		t.Errorf("Path = %+v, want %+v", got, want)
	}
	m.Reset()
	if got := m.Path(); got != (meter.PathStats{}) {
		t.Errorf("Reset left %+v", got)
	}
}

// TestLanesConcurrent: lanes are per request, so concurrent requests
// attributing to shared components cannot disturb one another — every
// lane's laps still sum to its own elapsed time. Run under -race.
func TestLanesConcurrent(t *testing.T) {
	m, _ := tickMeter()
	a, b := m.Component("a"), m.Component("b")
	var elapsed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l := meter.OpenLane(a)
				prev := l.Enter(b)
				l.Park()
				l.Unpark()
				l.Leave(prev)
				elapsed.Add(int64(l.Close()))
			}
		}()
	}
	wg.Wait()
	if sum := totalBusy(m); int64(sum) != elapsed.Load() {
		t.Fatalf("sum of component busy %d != sum of lane elapsed %d", sum, elapsed.Load())
	}
}

// TestLaneHandlerErrorPath: a handler that fails halfway through a nested
// dispatch still leaves every lap credited and the lane closed — the
// partition holds on the error path too.
func TestLaneHandlerErrorPath(t *testing.T) {
	m, clk := tickMeter()
	backend := rpc.NewServer(m.Component("backend"), meter.NewBurner(), rpc.DefaultCost)
	backend.Handle("fail", func([]byte) ([]byte, error) { return nil, errors.New("boom") })
	conn := rpc.NewLoopback(backend, m.Component("front"), meter.NewBurner(), rpc.DefaultCost)
	front := rpc.NewServer(m.Component("front"), meter.NewBurner(), rpc.DefaultCost)
	front.SetMeterHandlerBody(false)
	var lane *meter.Lane
	front.HandleCtx("op", func(sc trace.SpanContext, req []byte) ([]byte, error) {
		lane = sc.Lane()
		return rpc.CallTraced(conn, sc, "fail", req)
	})
	if _, err := front.Dispatch("op", []byte("x")); err == nil {
		t.Fatal("handler error must surface")
	}
	if lane == nil {
		t.Fatal("the outermost dispatch must open a lane")
	}
	// open, front->backend, backend->front, close: 4 reads, 3 laps.
	if got := clk.reads.Load(); got != 4 {
		t.Fatalf("clock reads = %d, want 4", got)
	}
	if sum := totalBusy(m); sum != 3 {
		t.Fatalf("sum of component busy = %d, want the 3 laps between 4 reads", sum)
	}
}

// clockReadsPerOp builds arch on a counting clock, warms it, and returns
// the clock reads of n reads through KVService.Read — or, with write, of
// n writes through KVService.Write — together with the service's meter.
func clockReadsPerOp(t *testing.T, arch core.Arch, cacheBytes int64, n int, write bool) (float64, *meter.Meter) {
	t.Helper()
	m, clk := tickMeter()
	const keys = 64
	gen := workload.NewSynthetic(workload.SyntheticConfig{Keys: keys, ValueSize: 256, Seed: 1})
	svc, err := core.BuildKVService(core.ServiceConfig{
		Arch: arch, Meter: m, AppCacheBytes: cacheBytes, RemoteCacheBytes: cacheBytes,
	}, gen)
	if err != nil {
		t.Fatal(err)
	}
	value := core.ValueFor("clock", 256)
	op := func(i int) {
		key := workload.KeyName(i % keys)
		var err error
		if write {
			err = svc.Write(key, value)
		} else {
			_, err = svc.Read(key)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < keys; i++ {
		op(i) // fill the cache tier, or give every key a memtable entry
	}
	m.Reset()
	before := clk.reads.Load()
	for i := 0; i < n; i++ {
		op(i)
	}
	return float64(clk.reads.Load()-before) / float64(n), m
}

// TestClockReadBudget pins what metering costs a request: busy-clock
// reads per request through the front door. A Linked hit opens and closes
// its lane and never leaves "app"; a Remote hit adds the cache server's
// lap; a Base point read walks app -> storage sql -> exec (with kv's own
// stopwatch pair inside) -> sql -> raft (the lease, after the node's
// statement lock) -> rpc -> app. A write walks the storage node's
// sections once, on the leader: sql, exec (kv's stopwatch pairs for the
// old row's read and the put inside), one kv lap for every follower's
// put, sql; then, after the lock, raft (the ships) and kv (the disk
// penalties the stores owe); a Remote write adds the cache Delete's lap.
// The write counts are pinned exactly, so a change to the write path
// cannot add or drop a lap boundary. They were 25 / 27 / 25 while every
// replica re-executed the statement, and 16 / 18 / 16 while each
// follower's put kept its own stopwatch pair inside a raft section.
func TestClockReadBudget(t *testing.T) {
	for _, c := range []struct {
		arch   core.Arch
		write  bool
		budget float64
	}{
		{core.Linked, false, 2}, {core.Remote, false, 4}, {core.Base, false, 10},
		{core.Linked, true, 14}, {core.Remote, true, 16}, {core.Base, true, 14},
	} {
		name := c.arch.String()
		if c.write {
			name += "Write"
		}
		t.Run(name, func(t *testing.T) {
			const n = 200
			reads, m := clockReadsPerOp(t, c.arch, 1<<30, n, c.write)
			if !c.write && reads > c.budget {
				t.Errorf("%.2f clock reads per read, budget %.0f", reads, c.budget)
			}
			if c.write && reads != c.budget {
				t.Errorf("%.2f clock reads per write, want exactly %.0f", reads, c.budget)
			}
			// One lane per request and a clock that ticks once per read:
			// the busy total is reads minus one per request (k reads bound
			// k-1 laps), less the nothing that was parked.
			if got, want := int64(totalBusy(m)), int64(reads*n)-n; got != want {
				t.Errorf("sum of component busy = %d, want %d", got, want)
			}
		})
	}
}
