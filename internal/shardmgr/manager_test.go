package shardmgr

import (
	"reflect"
	"strings"
	"testing"

	"cachecost/internal/cluster"
	"cachecost/internal/telemetry"
)

func newTestMap(t *testing.T, shards int, nodes ...string) *cluster.ShardMap {
	t.Helper()
	sm, err := cluster.NewShardMap(shards, nodes, 64)
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

// pumpShard records load ops against one shard.
func pumpShard(sm *cluster.ShardMap, shard int, ops int) {
	for i := 0; i < ops; i++ {
		sm.Note(shard)
	}
}

func TestManagerRequiresMap(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil map")
	}
}

// A shard drawing most of the window must gain replicas — enough that
// each replica's slice of it fits under hotFrac of a node's fair share.
func TestManagerReplicatesHotShard(t *testing.T) {
	sm := newTestMap(t, 16, "c0", "c1", "c2", "c3")
	m, err := New(Config{Map: sm, MinTickOps: 10})
	if err != nil {
		t.Fatal(err)
	}
	hot := 3
	pumpShard(sm, hot, 900) // 90% of the window on one shard
	for s := 0; s < 16; s++ {
		if s != hot {
			pumpShard(sm, s, 100/15)
		}
	}
	m.Tick()
	pl := sm.Placement(hot)
	// share 0.9 of total; fair/node = 0.25; hotFrac*fair = 0.125 per
	// replica → want ceil(0.9/0.125) = 8, clamped to 4 nodes.
	if len(pl.Replicas) != 4 {
		t.Fatalf("hot shard has %d replicas, want 4 (placement %+v)", len(pl.Replicas), pl)
	}
	st := m.Stats()
	if st.Replicates != 3 {
		t.Fatalf("Replicates = %d, want 3", st.Replicates)
	}
	// Cold shards stay single-replica.
	for s := 0; s < 16; s++ {
		if s == hot {
			continue
		}
		if n := len(sm.Placement(s).Replicas); n != 1 {
			t.Fatalf("cold shard %d has %d replicas", s, n)
		}
	}
}

// When the heat moves away, replicas decay one per tick (gentle
// shrink), eventually returning the shard to a single replica.
func TestManagerUnreplicatesCooledShard(t *testing.T) {
	sm := newTestMap(t, 8, "c0", "c1", "c2", "c3")
	m, err := New(Config{Map: sm, MinTickOps: 10})
	if err != nil {
		t.Fatal(err)
	}
	pumpShard(sm, 0, 1000)
	m.Tick()
	grown := len(sm.Placement(0).Replicas)
	if grown < 2 {
		t.Fatalf("setup: hot shard not replicated (replicas=%d)", grown)
	}
	// Heat moves to uniform; shard 0 cools. One replica drops per tick.
	for tick := 0; tick < grown; tick++ {
		for s := 0; s < sm.Shards(); s++ {
			pumpShard(sm, s, 20)
		}
		m.Tick()
	}
	if n := len(sm.Placement(0).Replicas); n != 1 {
		t.Fatalf("cooled shard still has %d replicas after decay ticks", n)
	}
	if st := m.Stats(); st.Unreplicates != int64(grown-1) {
		t.Fatalf("Unreplicates = %d, want %d", st.Unreplicates, grown-1)
	}
}

// Many warm (but not replication-worthy) shards piled on one node must
// trigger a migration off it, and the handoff must cut over after
// handoffTicks more ticks.
func TestManagerMigratesOffHotNode(t *testing.T) {
	sm := newTestMap(t, 32, "c0", "c1", "c2", "c3")
	m, err := New(Config{Map: sm, MinTickOps: 10, MigrateFrac: 1.3})
	if err != nil {
		t.Fatal(err)
	}
	// Heat every shard owned by c0's hottest victim... find the node
	// owning the most shards and load only its shards, evenly (so no
	// single shard crosses the replication threshold).
	byNode := map[string][]int{}
	for s := 0; s < 32; s++ {
		p := sm.Placement(s).Primary()
		byNode[p] = append(byNode[p], s)
	}
	hotNode, count := "", 0
	for n, ss := range byNode {
		if len(ss) > count {
			hotNode, count = n, len(ss)
		}
	}
	if count < 2 {
		t.Skip("ring layout gave no node 2+ shards")
	}
	loadTick := func() {
		for _, s := range byNode[hotNode] {
			pumpShard(sm, s, 60)
		}
		for n, ss := range byNode {
			if n == hotNode {
				continue
			}
			for _, s := range ss {
				pumpShard(sm, s, 6)
			}
		}
	}
	loadTick()
	m.Tick()
	st := m.Stats()
	if st.Migrates != 1 {
		t.Fatalf("Migrates = %d after hot-node tick, want 1 (stats %+v)", st.Migrates, st)
	}
	// Find the migrating shard and check the handoff invariants.
	mig := -1
	for s := 0; s < 32; s++ {
		if sm.Placement(s).Migrating() {
			mig = s
			break
		}
	}
	if mig < 0 {
		t.Fatal("no shard in handoff after migration")
	}
	pl := sm.Placement(mig)
	if pl.Old != hotNode {
		t.Fatalf("migrating shard's Old = %q, want hot node %q", pl.Old, hotNode)
	}
	if pl.Primary() == hotNode {
		t.Fatal("migration target is the hot node itself")
	}
	if pl.Epoch != pl.OldEpoch+1 {
		t.Fatalf("epoch %d / old epoch %d: want a single bump", pl.Epoch, pl.OldEpoch)
	}
	// Only one handoff at a time, even though the node is still hot.
	loadTick()
	m.Tick()
	if st := m.Stats(); st.Migrates != 1 {
		t.Fatalf("second migration started while one was in flight (Migrates=%d)", st.Migrates)
	}
	// handoffTicks=2: the handoff opened on tick 1, aged on tick 2, cuts
	// over on tick 3.
	loadTick()
	m.Tick()
	if sm.Placement(mig).Migrating() {
		t.Fatal("handoff did not cut over after handoffTicks")
	}
	if st := m.Stats(); st.Cutovers != 1 {
		t.Fatalf("Cutovers = %d, want 1", st.Cutovers)
	}
}

// A window below MinTickOps must change nothing: placement decisions
// from a handful of samples would chase noise.
func TestManagerIgnoresTinyWindows(t *testing.T) {
	sm := newTestMap(t, 8, "c0", "c1")
	m, err := New(Config{Map: sm, MinTickOps: 64})
	if err != nil {
		t.Fatal(err)
	}
	placements := func() (out []cluster.ShardPlacement) {
		for s := 0; s < sm.Shards(); s++ {
			out = append(out, sm.Placement(s))
		}
		return out
	}
	before := placements()
	pumpShard(sm, 0, 63)
	m.Tick()
	if !reflect.DeepEqual(placements(), before) {
		t.Fatal("tiny window mutated placements")
	}
}

// Counters must reach the registry, and the status section must render
// hot keys with their replica placements.
func TestManagerTelemetryAndStatus(t *testing.T) {
	reg := telemetry.NewRegistry()
	sm := newTestMap(t, 8, "c0", "c1", "c2", "c3")
	det := NewDetector(16)
	m, err := New(Config{Map: sm, Detector: det, Registry: reg, MinTickOps: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		det.Record("celebrity")
	}
	hot := sm.ShardOf("celebrity")
	pumpShard(sm, hot, 1000)
	m.Tick()
	if got := reg.Counter("shardmgr.replicate").Value(); got == 0 {
		t.Fatal("shardmgr.replicate counter not incremented")
	}
	secs := reg.StatusSections()
	if len(secs) != 1 || secs[0].Name != "shardmgr" {
		t.Fatalf("status sections = %+v", secs)
	}
	var sb strings.Builder
	secs[0].Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "celebrity") {
		t.Fatalf("status missing hot key:\n%s", out)
	}
	if !strings.Contains(out, "replicas=[") {
		t.Fatalf("status missing replica placement:\n%s", out)
	}
	if !strings.Contains(out, "replicate=") {
		t.Fatalf("status missing action counters:\n%s", out)
	}
}
