package cluster

import (
	"fmt"
	"sync"
	"testing"
)

func newTestMap(t *testing.T, shards int, nodes ...string) *ShardMap {
	t.Helper()
	m, err := NewShardMap(shards, nodes, 64)
	if err != nil {
		t.Fatalf("NewShardMap: %v", err)
	}
	return m
}

func TestShardMapSeeding(t *testing.T) {
	m := newTestMap(t, 64, "n0", "n1", "n2", "n3")
	if m.Shards() != 64 {
		t.Fatalf("Shards() = %d", m.Shards())
	}
	perNode := map[string]int{}
	for s := 0; s < m.Shards(); s++ {
		pl := m.Placement(s)
		if len(pl.Replicas) != 1 {
			t.Fatalf("shard %d seeded with %d replicas", s, len(pl.Replicas))
		}
		if pl.Epoch != 1 || pl.Migrating() {
			t.Fatalf("shard %d seeded with epoch %d migrating=%v", s, pl.Epoch, pl.Migrating())
		}
		perNode[pl.Primary()]++
	}
	// The ring should spread the 64 shards over all 4 nodes.
	for _, n := range m.Nodes() {
		if perNode[n] == 0 {
			t.Fatalf("node %s owns no shards: %v", n, perNode)
		}
	}
}

// TestShardMapSeedingPinned pins the seeded primaries of the maps the
// deployment builds for a multi-node Remote tier (64 shards, 64 virtual
// nodes, cache nodes c0…), the hotshard figure's four included: one
// digit per shard, the index of its primary. The figures' initial
// placement changes only if this does.
func TestShardMapSeedingPinned(t *testing.T) {
	want := map[int]string{
		2: "1100011100110011011011011111111110110110011011110110111100010001",
		3: "2200211102212022012011022111111112120112222021212122112100020021",
		4: "2300313332313033313011023111111113120113222021213122112103330023",
	}
	for n, pin := range want {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("c%d", i)
		}
		m := newTestMap(t, 64, names...)
		got := ""
		for s := 0; s < 64; s++ {
			got += m.Placement(s).Primary()[1:]
		}
		if got != pin {
			t.Errorf("%d nodes: seeded primaries %s, want %s", n, got, pin)
		}
	}
}

func TestShardMapRejectsBadConfig(t *testing.T) {
	if _, err := NewShardMap(8, nil, 64); err == nil {
		t.Fatal("no error for empty node set")
	}
	if _, err := NewShardMap(8, []string{"a", "a"}, 64); err == nil {
		t.Fatal("no error for duplicate node")
	}
}

func TestShardMapShardOfStable(t *testing.T) {
	m := newTestMap(t, 32, "n0", "n1")
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key%05d", i)
		s := m.ShardOf(k)
		if s < 0 || s >= 32 {
			t.Fatalf("ShardOf(%q) = %d out of range", k, s)
		}
		if again := m.ShardOf(k); again != s {
			t.Fatalf("ShardOf(%q) unstable: %d then %d", k, s, again)
		}
	}
}

func TestShardMapReplicateAndUnreplicate(t *testing.T) {
	m := newTestMap(t, 8, "n0", "n1", "n2")
	s := 0
	primary := m.Placement(s).Primary()
	var other string
	for _, n := range m.Nodes() {
		if n != primary {
			other = n
			break
		}
	}
	gen := m.gen.Load()
	if !m.Replicate(s, other) {
		t.Fatal("Replicate refused a fresh node")
	}
	if m.gen.Load() != gen+1 {
		t.Fatalf("generation %d, want %d", m.gen.Load(), gen+1)
	}
	pl := m.Placement(s)
	if !pl.HasReplica(other) || pl.Primary() != primary {
		t.Fatalf("placement after replicate: %+v", pl)
	}
	if pl.Epoch != 1 {
		t.Fatalf("first replicate must not bump the epoch, got %d", pl.Epoch)
	}
	if m.Replicate(s, other) {
		t.Fatal("Replicate accepted a node already in the set")
	}
	if m.Replicate(s, "nope") {
		t.Fatal("Replicate accepted an unknown node")
	}
	if m.Unreplicate(s, primary) {
		t.Fatal("Unreplicate removed the primary")
	}
	if !m.Unreplicate(s, other) {
		t.Fatal("Unreplicate refused a secondary")
	}
	if m.Placement(s).HasReplica(other) {
		t.Fatal("secondary still present after Unreplicate")
	}
}

// A node that left a shard's replica set may still hold entries stamped
// with the current epoch; re-adding it must bump the epoch so those
// entries can never satisfy a read again.
func TestShardMapRejoinBumpsEpoch(t *testing.T) {
	m := newTestMap(t, 8, "n0", "n1", "n2")
	s := 0
	primary := m.Placement(s).Primary()
	var other string
	for _, n := range m.Nodes() {
		if n != primary {
			other = n
			break
		}
	}
	m.Replicate(s, other)
	m.Unreplicate(s, other)
	if !m.Replicate(s, other) {
		t.Fatal("rejoin refused")
	}
	if got := m.Placement(s).Epoch; got != 2 {
		t.Fatalf("rejoin must bump epoch to 2, got %d", got)
	}
	// A second leave/rejoin bumps again.
	m.Unreplicate(s, other)
	m.Replicate(s, other)
	if got := m.Placement(s).Epoch; got != 3 {
		t.Fatalf("second rejoin epoch = %d, want 3", got)
	}
}

func TestShardMapMigrationLifecycle(t *testing.T) {
	m := newTestMap(t, 8, "n0", "n1", "n2")
	s := 3
	oldPrimary := m.Placement(s).Primary()
	var to string
	for _, n := range m.Nodes() {
		if n != oldPrimary {
			to = n
			break
		}
	}
	if m.BeginMigration(s, oldPrimary) {
		t.Fatal("BeginMigration accepted the current primary")
	}
	if !m.BeginMigration(s, to) {
		t.Fatal("BeginMigration refused")
	}
	pl := m.Placement(s)
	if pl.Primary() != to || pl.Old != oldPrimary || pl.OldEpoch != 1 || pl.Epoch != 2 {
		t.Fatalf("handoff placement: %+v", pl)
	}
	if m.BeginMigration(s, oldPrimary) {
		t.Fatal("second BeginMigration accepted mid-handoff")
	}
	if m.Replicate(s, oldPrimary) {
		t.Fatal("Replicate accepted mid-handoff")
	}
	if !m.FinishMigration(s) {
		t.Fatal("FinishMigration refused")
	}
	pl = m.Placement(s)
	if pl.Migrating() || pl.Primary() != to || pl.Epoch != 2 {
		t.Fatalf("post-cutover placement: %+v", pl)
	}
	if m.FinishMigration(s) {
		t.Fatal("FinishMigration accepted with no handoff in flight")
	}
}

func TestShardMapLoads(t *testing.T) {
	m := newTestMap(t, 4, "n0")
	m.Note(1)
	m.Note(1)
	m.Note(3)
	got := m.DrainLoads(nil)
	want := []int64{0, 2, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("loads = %v, want %v", got, want)
		}
	}
	// The drain swaps the window out.
	got = m.DrainLoads(got)
	for i := range got {
		if got[i] != 0 {
			t.Fatalf("second drain not zero: %v", got)
		}
	}
}

// ShardOf and Placement are on the per-request routing and ownership
// path; they must not allocate.
func TestShardMapLookupZeroAlloc(t *testing.T) {
	m := newTestMap(t, 64, "n0", "n1", "n2", "n3")
	key := "key01234"
	allocs := testing.AllocsPerRun(1000, func() {
		if m.Placement(m.ShardOf(key)).Primary() == "" {
			t.Fatal("no primary")
		}
	})
	if allocs != 0 {
		t.Fatalf("a shard lookup allocates %.1f objects, want 0", allocs)
	}
}

// Placement/Note/ShardOf must stay safe while the manager mutates
// placements — the routed client calls them from every lane.
func TestShardMapConcurrent(t *testing.T) {
	m := newTestMap(t, 16, "n0", "n1", "n2")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("g%dk%d", g, i)
				s := m.ShardOf(k)
				m.Note(s)
				pl := m.Placement(s)
				if len(pl.Replicas) == 0 {
					t.Error("empty placement")
					return
				}
				_ = EpochKey(pl.Epoch, k)
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		s := i % 16
		for _, n := range m.Nodes() {
			m.Replicate(s, n)
		}
		for _, n := range m.Nodes() {
			m.Unreplicate(s, n)
		}
		if m.BeginMigration(s, m.Nodes()[i%3]) {
			m.FinishMigration(s)
		}
		m.DrainLoads(nil)
	}
	close(stop)
	wg.Wait()
}

func TestEpochKeyRoundTrip(t *testing.T) {
	cases := []struct {
		epoch uint64
		key   string
	}{
		{1, "k00042"}, {17, ""}, {0, "x"}, {1 << 60, "weird|key"},
	}
	for _, c := range cases {
		ek := EpochKey(c.epoch, c.key)
		if got := TrimEpoch(ek); got != c.key {
			t.Fatalf("TrimEpoch(EpochKey(%d, %q)) = %q", c.epoch, c.key, got)
		}
	}
	// Unstamped keys pass through.
	for _, raw := range []string{"", "k1", "e", "ex|", "e12"} {
		if got := TrimEpoch(raw); got != raw {
			t.Fatalf("TrimEpoch(%q) = %q, want unchanged", raw, got)
		}
	}
}

func TestEpochKeyUniqueAcrossEpochs(t *testing.T) {
	if EpochKey(1, "k") == EpochKey(2, "k") {
		t.Fatal("epochs collide")
	}
	if EpochKey(12, "k") == EpochKey(1, "2|k") {
		t.Fatal("stamp ambiguity between epoch digits and key bytes")
	}
}
