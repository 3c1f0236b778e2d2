package core

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"cachecost/internal/fault"
	"cachecost/internal/meter"
	"cachecost/internal/workload"
)

// TestManagedTierKillOldNodeMidMigration drives the managed multi-node
// cache tier into a live migration and kills the migration's source node
// in the middle of the double-read window — the worst moment: the new
// primary is still cold and every miss on the moving shard is probing
// the corpse. The recovery contract: no client-visible errors (handoff
// reads against the dead node degrade to storage misses), the manager
// still completes the cutover on schedule, the hit-ratio dip stays
// bounded, and reads after recovery return the canonical bytes — no
// acknowledged write is lost, because storage remained the source of
// truth throughout.
func TestManagedTierKillOldNodeMidMigration(t *testing.T) {
	const (
		warmup    = 400
		ops       = 2600
		tickEvery = 100
	)
	m := meter.NewMeter()
	gen := smallGen(7)
	inj := fault.New(7, m)
	cfg := smallCfg(Remote, m)
	cfg.CacheNodes = 4
	cfg.RemoteCacheBytes = 1 << 20 // whole population fits: the dip we see is the fault's
	cfg.Faults = inj
	// Eager migration: once replication has spread the Zipf head, a node
	// still past 1.05x its fair share moves its hottest sole-replica
	// shard — the live migration under test.
	cfg.ShardMgr = &ShardMgrConfig{MigrateFrac: 1.05}
	svc, err := BuildKVService(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	mgr := svc.ShardManager()
	smap := svc.smap
	if mgr == nil || smap == nil {
		t.Fatal("managed service built without a manager or shard map")
	}

	killed := ""
	reviveAt := -1
	res, err := RunExperimentCfg(svc, m, gen, RunConfig{
		Warmup: warmup, Ops: ops, Prices: meter.GCP,
		OnOp: func(n int) {
			if n == reviveAt {
				inj.Revive(killed)
			}
			// Manager ticks start with the metered window so the kill and
			// its degradations land where the result can see them.
			if n >= warmup && n%tickEvery == 0 {
				mgr.Tick()
			}
			if killed != "" || mgr.Stats().Migrates == 0 {
				return
			}
			// First migration is in flight: kill its source node while the
			// double-read window is open.
			for s := 0; s < smap.Shards(); s++ {
				pl := smap.Placement(s)
				if !pl.Migrating() {
					continue
				}
				idx, err := strconv.Atoi(strings.TrimPrefix(pl.Old, "c"))
				if err != nil {
					t.Errorf("unparseable old node %q", pl.Old)
					return
				}
				killed = cacheFaultNode(idx)
				inj.Kill(killed)
				reviveAt = n + 6*tickEvery
				return
			}
		},
	})
	if err != nil {
		t.Fatalf("kill during live migration surfaced a client error: %v", err)
	}
	if killed == "" {
		t.Fatal("the manager never started a migration: the scenario did not run")
	}
	if reviveAt > warmup+ops {
		t.Fatalf("revive scheduled at op %d, past the run: kill landed too late to observe recovery", reviveAt)
	}
	st := mgr.Stats()
	if st.Migrates == 0 || st.Cutovers == 0 {
		t.Fatalf("migration must complete despite the dead source: migrates=%d cutovers=%d", st.Migrates, st.Cutovers)
	}
	if res.Path.Degraded == 0 {
		t.Fatal("killing the handoff's old node never degraded a read: the window was not exercised")
	}
	// Bounded dip: the tier holds the whole population, so only the dead
	// node's share and the migration's epoch turnover cost hits. A
	// collapsed cache would drag the whole metered window under 0.5.
	if res.HitRatio < 0.5 {
		t.Fatalf("hit-ratio dip unbounded: %.3f over the metered window", res.HitRatio)
	}
	// No lost acknowledged write: after revival every key still reads as
	// the digest of its canonical bytes (the service replies with the
	// application digest; every write in the run — and the preload —
	// stored ValueFor(key, 2048), so cache and storage must agree on it).
	for i := 0; i < 20; i++ {
		key := workload.KeyName(i)
		got, err := svc.Read(key)
		if err != nil {
			t.Fatalf("post-recovery read %q: %v", key, err)
		}
		if want := Digest(ValueFor(key, 2048)); !bytes.Equal(got, want) {
			t.Fatalf("post-recovery read %q diverged from the acknowledged write's digest", key)
		}
	}
}

// TestManagedTierReplicatesUnderSkew pins the figure's other half at
// test scale: under heavy single-key skew the manager replicates the hot
// shard across nodes and the served-op spread tightens versus a frozen
// map. (The hotshard figure measures the wall-clock consequence; this
// test pins the placement mechanics without sleeping.)
func TestManagedTierReplicatesUnderSkew(t *testing.T) {
	run := func(managed bool) (spread float64, replicates int64) {
		m := meter.NewMeter()
		gen := workload.NewSynthetic(workload.SyntheticConfig{
			Keys: 200, Alpha: 1.4, ReadRatio: 0.95, ValueSize: 512, Seed: 11,
		})
		cfg := smallCfg(Remote, m)
		cfg.CacheNodes = 4
		cfg.RemoteCacheBytes = 1 << 20
		if managed {
			cfg.ShardMgr = &ShardMgrConfig{}
		}
		svc, err := BuildKVService(cfg, gen)
		if err != nil {
			t.Fatal(err)
		}
		mgr := svc.ShardManager()
		_, err = RunExperimentCfg(svc, m, gen, RunConfig{
			Warmup: 200, Ops: 2400, Prices: meter.GCP,
			OnOp: func(n int) {
				if mgr != nil && n > 0 && n%100 == 0 {
					mgr.Tick()
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if mgr != nil {
			replicates = mgr.Stats().Replicates
		}
		return nodeSpread(svc.CacheNodeOps()), replicates
	}
	staticSpread, _ := run(false)
	managedSpread, replicates := run(true)
	if replicates == 0 {
		t.Fatal("alpha=1.4 skew never triggered a replication")
	}
	if managedSpread >= staticSpread {
		t.Fatalf("managed spread %.3f did not improve on static %.3f", managedSpread, staticSpread)
	}
}

// TestCacheTierBillsWholeBudget: the Remote tier's nodes split
// RemoteCacheBytes exactly, whatever the node count — their capacities,
// and the memory their remotecache components bill, sum to the budget
// even when no node count divides it.
func TestCacheTierBillsWholeBudget(t *testing.T) {
	const budget = 1_000_003
	for _, nodes := range []int{1, 3, 4} {
		m := meter.NewMeter()
		cfg := smallCfg(Remote, m)
		cfg.RemoteCacheBytes, cfg.CacheNodes = budget, nodes
		svc, err := NewKVService(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var capacity, billed int64
		for _, srv := range svc.rcServers {
			capacity += srv.Capacity()
		}
		for _, c := range m.Snapshot() {
			if strings.HasPrefix(c.Name, "remotecache") {
				billed += c.MemBytes
			}
		}
		if len(svc.rcServers) != nodes || capacity != budget || billed != budget {
			t.Errorf("%d nodes: %d servers, capacity %d, billed %d; want %d, %d, %d",
				nodes, len(svc.rcServers), capacity, billed, nodes, budget, budget)
		}
	}
}
