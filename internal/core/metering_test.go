package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"cachecost/internal/meter"
	"cachecost/internal/trace"
	"cachecost/internal/workload"
)

// totalBusy sums every component's busy time.
func totalBusy(m *meter.Meter) (sum time.Duration) {
	for _, c := range m.Snapshot() {
		sum += c.Busy
	}
	return sum
}

// TestMeteringConservation checks the central invariant of the costing
// methodology: with a single-threaded driver, the busy time attributed
// across ALL components never exceeds the wall time of the metered
// window (no double counting), and covers most of it (no large blind
// spots) — otherwise the dollar figures would be fabricated.
func TestMeteringConservation(t *testing.T) {
	if raceEnabled {
		t.Skip("measured cost ratios are distorted by race-detector instrumentation")
	}
	for _, arch := range []Arch{Base, Remote, Linked, LinkedVersion} {
		t.Run(arch.String(), func(t *testing.T) {
			m := meter.NewMeter()
			gen := smallGen(13)
			svc, err := BuildKVService(smallCfg(arch, m), gen)
			if err != nil {
				t.Fatal(err)
			}
			// Warmup, then a timed window.
			for i := 0; i < 300; i++ {
				op := gen.Next()
				if op.Kind == workload.Read {
					svc.Read(op.Key)
				} else {
					svc.Write(op.Key, ValueFor(op.Key, op.ValueSize))
				}
			}
			m.Reset()
			t0 := time.Now()
			for i := 0; i < 800; i++ {
				op := gen.Next()
				if op.Kind == workload.Read {
					if _, err := svc.Read(op.Key); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := svc.Write(op.Key, ValueFor(op.Key, op.ValueSize)); err != nil {
						t.Fatal(err)
					}
				}
			}
			elapsed := time.Since(t0)
			busy := totalBusy(m)
			if busy > elapsed*105/100 {
				t.Fatalf("attributed busy %v exceeds wall %v: double counting", busy, elapsed)
			}
			if busy < elapsed*40/100 {
				t.Fatalf("attributed busy %v is under 40%% of wall %v: blind spots", busy, elapsed)
			}
		})
	}
}

// TestMeteredOpsUnchanged pins how many operations each component meters
// over a fixed 1 000-op stream: one per transport charge, per front-end
// burn, per replication ship or lease check, per handler section. The
// numbers were taken before metering moved onto lanes; with the wire
// formats untouched, equal counts mean the Burner was handed the same
// units (a scratch run with a counting Burner read 92 233 236, 61 079 484
// and 33 484 584 units on both sides), so what the lane removed is
// measuring overhead, not measured work.
//
// storage.kv counts only the stream's statements. Preloading the 300
// keys used to add 1,800 ops: each row's INSERT reads for an existing
// row and then Puts, on each of three replicas. Bootstrap now runs as a
// bulk load that meters nothing, so each architecture's storage.kv is
// exactly 1,800 lower (Base 3340, Remote 2680, Linked 2611 before) and
// every other count is as it was.
//
// Replication ships the leader's puts, not its statement: the followers
// parse and execute nothing and read no row, they Put. Over the stream's
// 108 writes, each architecture's storage.sql is 324 lower (3 applier
// parses a write), storage.exec 216 lower (2 follower executions) and
// storage.kv 216 lower (2 follower reads for the existing row); every
// other count is as it was (Base 3324 / 1216 / 1540, Remote 1344 / 556 /
// 880, Linked 1137 / 487 / 811 before). The Burner units moved by the
// ship bytes alone: put bytes instead of statement bytes, 47 B fewer a
// write here, so 2376 units fewer over the stream on every architecture
// (92 230 752, 61 076 536 and 33 482 100).
func TestMeteredOpsUnchanged(t *testing.T) {
	want := map[Arch]map[string]int64{
		Base:   {"app": 5000, "storage.exec": 1000, "storage.kv": 1324, "storage.raft": 1108, "storage.rpc": 2000, "storage.sql": 3000},
		Remote: {"app": 6144, "remotecache": 3696, "storage.exec": 340, "storage.kv": 664, "storage.raft": 448, "storage.rpc": 680, "storage.sql": 1020},
		Linked: {"app": 3542, "app.cache": 0, "storage.exec": 271, "storage.kv": 595, "storage.raft": 379, "storage.rpc": 542, "storage.sql": 813},
	}
	for arch, ops := range want {
		t.Run(arch.String(), func(t *testing.T) {
			m := meter.NewMeter()
			gen := smallGen(13)
			svc, err := BuildKVService(smallCfg(arch, m), gen)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 1000; i++ {
				op := gen.Next()
				if op.Kind == workload.Read {
					_, err = svc.Read(op.Key)
				} else {
					err = svc.Write(op.Key, ValueFor(op.Key, op.ValueSize))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			snap := m.Snapshot()
			if len(snap) != len(ops) {
				t.Errorf("components = %v, want %d of them", snap, len(ops))
			}
			for _, c := range snap {
				if c.Ops != ops[c.Name] {
					t.Errorf("%s: %d ops, want %d", c.Name, c.Ops, ops[c.Name])
				}
			}
		})
	}
}

// TestLinkedMissAllocs pins a bare Linked tier's miss: the fill (with
// its WaitGroup) and the fill table's copy of the key, which the cache
// adopts when the fill installs. The cache's entry takes the slab slot
// the eviction freed, and the source lends a stored string, so neither
// the install nor the load allocates.
func TestLinkedMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	tier, src := newTestLinkedTier(), newFakeRows("miss-key", "value")
	key := strings.Repeat("miss-key", 1) // not a constant: the copies are real
	miss := func() {
		tier.evict(key)
		if _, _, hit, err := tier.read(trace.SpanContext{}, key, src); err != nil || hit {
			t.Fatalf("read = hit %v, %v; want a miss", hit, err)
		}
	}
	miss()
	if got := testing.AllocsPerRun(200, miss); got > 2 {
		t.Errorf("a Linked miss allocates %.0f times, want <= 2", got)
	}
}

// TestLinkedHitAllocs pins what a warmed request allocates on the three
// benchmarked architectures, in counts and in bytes, at a 16 KB value —
// the size where a stray copy is most of the bill. Counts and bytes are
// runtime.MemStats deltas over a run of warmed ops.
//
// The Linked hit is the front-door framing alone: the key it decodes and
// the digest it returns. A Remote hit adds the cache round trip and not
// one value-sized buffer — the value is encoded into a pool buffer,
// copied across the loopback into another, and digested in place
// (DESIGN.md, "Buffer ownership"). A write is parsed and executed once,
// on the leader, and its puts applied on every replica; it keeps one new
// row, the leader's, which becomes every replica's memtable entry, plus,
// amortised over the memtable, the pages each replica's flush writes. The
// old row is read where the leader's store keeps it, and the statement,
// the put list and the result are scratch the node reuses. A 10 B write
// shows the per-message part alone.
//
// Anything handed through the tier interface that is built per request (a
// closure over the storage statement, say) escapes to the heap and shows
// up in the counts as +1.
func TestLinkedHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	const (
		valueSize = 16 << 10
		keys      = 400 // 6.4 MB of rows: the write run fills the 4 MB memtable and flushes
	)
	for _, tc := range []struct {
		arch                 Arch
		readAllocs, readB    float64 // per warmed read: count, bytes
		writeAllocs, writeBV float64 // per write: count, bytes as a multiple of the value
		smallWriteAllocs     float64 // per warmed 10 B write: count
	}{
		// A warmed read allocates the digest it returns and nothing else:
		// the storage result borrows its response up to the answer.
		// Measured 1.00 / 16 B; 14.1 / 4.39 values; 2.36 at 10 B.
		// Parent (followers re-executing each write, which read the old
		// row and so loaded its page): 25.0 / 6.66 values; 4.36 at 10 B.
		{Base, 2, 0.1 * valueSize, 14, 5, 2},
		// Measured 1.00 / 16 B; 15.1 / 4.39 values; 3.36 at 10 B.
		// Parent: 26.0 / 6.67 values; 5.36 at 10 B.
		{Remote, 1.05, 24, 15, 5, 3},
		// Measured 1.00 / 16 B; 16.1 / 5.39 values; 4.36 at 10 B.
		// Parent: 26.9 / 7.67 values; 6.38 at 10 B.
		{Linked, 1.05, 24, 16, 6, 4},
	} {
		t.Run(tc.arch.String(), func(t *testing.T) {
			gen := workload.NewSynthetic(workload.SyntheticConfig{
				Keys: keys, Alpha: 1.2, ReadRatio: 0.9, ValueSize: valueSize, Seed: 13,
			})
			cfg := smallCfg(tc.arch, meter.NewMeter())
			cfg.StorageCacheBytes, cfg.AppCacheBytes, cfg.RemoteCacheBytes = 16<<20, 16<<20, 16<<20
			svc, err := BuildKVService(cfg, gen)
			if err != nil {
				t.Fatal(err)
			}
			key := workload.KeyName(3)
			perOp := func(n int, op func(i int) error) (allocs, bytes float64) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < n; i++ {
					if err := op(i); err != nil {
						t.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
			}
			read := func(int) error { _, err := svc.Read(key); return err }
			perOp(50, read) // fill, and warm the pools
			// A long window: a 16 KB buffer allocated inside it (the
			// transport pool empty) costs under 4 B per read.
			allocs, bytes := perOp(5000, read)
			t.Logf("warmed read: %.2f allocs, %.0f B per op", allocs, bytes)
			if allocs > tc.readAllocs || bytes > tc.readB {
				t.Errorf("warmed read allocates %.2f / %.0f B per op, want <= %v / %.0f B", allocs, bytes, tc.readAllocs, tc.readB)
			}
			value := ValueFor(key, valueSize)
			write := func(i int) error { return svc.Write(workload.KeyName(i%keys), value) }
			perOp(keys, write)
			allocs, bytes = perOp(2*keys, write)
			t.Logf("write: %.1f allocs, %.2f values per op", allocs, bytes/valueSize)
			if allocs > tc.writeAllocs+0.5 || bytes > tc.writeBV*valueSize {
				t.Errorf("write allocates %.1f / %.1f values per op, want <= %v / %v values", allocs, bytes/valueSize, tc.writeAllocs, tc.writeBV)
			}
			small := ValueFor(key, 10)
			writeSmall := func(i int) error { return svc.Write(workload.KeyName(i%keys), small) }
			perOp(keys, writeSmall) // every row small, every key in the memtable
			allocs, bytes = perOp(5*keys, writeSmall)
			t.Logf("10 B write: %.2f allocs, %.0f B per op", allocs, bytes)
			if allocs > tc.smallWriteAllocs+0.5 {
				t.Errorf("10 B write allocates %.2f per op, want <= %v", allocs, tc.smallWriteAllocs)
			}
		})
	}
}

// TestRemoteReadBatchAllocs pins the batched Remote hit: eight warmed
// keys come back borrowed from one MultiGet response — no per-value copy,
// no []V beside the [][]byte (59 allocations before values were lent),
// and no per-node grouping of the keys (48 while the cache client still
// grouped every batch by owning node; measured 37 since).
func TestRemoteReadBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	svc, err := BuildKVService(smallCfg(Remote, meter.NewMeter()), smallGen(13))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = workload.KeyName(i)
	}
	read := func() {
		if _, err := svc.ReadBatch(keys); err != nil {
			t.Fatal(err)
		}
	}
	read() // fill
	got := testing.AllocsPerRun(500, read)
	t.Logf("warmed ReadBatch of 8: %.1f allocs", got)
	if got > 37 {
		t.Errorf("warmed ReadBatch of 8 allocates %.1f per batch, want <= 37", got)
	}
}
