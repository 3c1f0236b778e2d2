package shardmgr

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"cachecost/internal/cluster"
	"cachecost/internal/telemetry"
)

// Config parameterizes a Manager.
type Config struct {
	// Map is the shard map the manager reshapes. Required.
	Map *cluster.ShardMap
	// Detector, when non-nil, supplies the hot-key top-k for the status
	// page; the placement policy itself runs on the map's per-shard
	// demand windows, which are exact and deterministic.
	Detector *Detector
	// Registry, when non-nil, receives shardmgr.replicate / unreplicate
	// / migrate / cutover counters, per-node load-share gauges, and the
	// manager's /statusz section (top-k keys + replica placement).
	Registry *telemetry.Registry
	// MigrateFrac sets the migration threshold: when a node's load
	// exceeds MigrateFrac times the fair per-node share, its hottest
	// sole-replica shard is migrated to the least-loaded node.
	// Default 1.3.
	MigrateFrac float64
	// MinTickOps is the demand-window floor below which a tick only
	// ages handoffs: deciding placement from a handful of ops would be
	// noise-chasing. Default 64.
	MinTickOps int64
}

// The placement policy's fixed settings. A shard's replica set may span
// every node.
const (
	// hotFrac is the replication threshold: a shard is given enough
	// replicas that each carries at most hotFrac of a node's fair load
	// share — a single shard may occupy at most half a node before it is
	// spread.
	hotFrac = 0.5
	// handoffTicks is how many ticks a migration's double-read window
	// stays open before cutover.
	handoffTicks = 2
	// statusTopK is how many hot keys the status section lists.
	statusTopK = 10
)

// Stats counts the manager's placement actions.
type Stats struct {
	Ticks        int64
	Replicates   int64
	Unreplicates int64
	Migrates     int64
	Cutovers     int64
}

// Manager turns demand signals into placement actions on a ShardMap.
// Tick is the whole control loop: the caller decides the cadence (the
// experiment driver ticks every N operations so runs stay
// deterministic; a live deployment would tick on a timer). Tick is
// serialized internally; the routing hot paths never block on it.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	loads    []int64     // scratch: drained demand window
	handoff  map[int]int // shard -> ticks since BeginMigration
	stats    Stats
	lastTot  int64
	nodeLoad map[string]float64 // last tick's estimated per-node load

	ctReplicate   *telemetry.Counter
	ctUnreplicate *telemetry.Counter
	ctMigrate     *telemetry.Counter
	ctCutover     *telemetry.Counter
	gHandoffs     *telemetry.Gauge
	gReplicated   *telemetry.Gauge
}

// New builds a manager and, when a registry is configured, registers
// its counters and /statusz section.
func New(cfg Config) (*Manager, error) {
	if cfg.Map == nil {
		return nil, fmt.Errorf("shardmgr: Config.Map is required")
	}
	if cfg.MigrateFrac <= 1 {
		cfg.MigrateFrac = 1.3
	}
	if cfg.MinTickOps <= 0 {
		cfg.MinTickOps = 64
	}
	m := &Manager{
		cfg:      cfg,
		handoff:  make(map[int]int),
		nodeLoad: make(map[string]float64),
	}
	reg := cfg.Registry
	m.ctReplicate = reg.Counter("shardmgr.replicate")
	m.ctUnreplicate = reg.Counter("shardmgr.unreplicate")
	m.ctMigrate = reg.Counter("shardmgr.migrate")
	m.ctCutover = reg.Counter("shardmgr.cutover")
	m.gHandoffs = reg.Gauge("shardmgr.handoffs")
	m.gReplicated = reg.Gauge("shardmgr.replicated_shards")
	reg.RegisterStatus("shardmgr", m.status)
	return m, nil
}

// Stats snapshots the action counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// nodeLoads estimates each node's share of the demand window from the
// current placements: a shard's load splits evenly over its replicas
// (the router's power-of-two-choices keeps that close to true), and a
// migrating shard's load lands on its new primary.
func (m *Manager) nodeLoads(loads []int64, nodes []string) map[string]float64 {
	nl := make(map[string]float64, len(nodes))
	for _, n := range nodes {
		nl[n] = 0
	}
	sm := m.cfg.Map
	for s := 0; s < sm.Shards(); s++ {
		if loads[s] == 0 {
			continue
		}
		pl := sm.Placement(s)
		share := float64(loads[s]) / float64(len(pl.Replicas))
		for _, r := range pl.Replicas {
			nl[r] += share
		}
	}
	return nl
}

// Tick runs one control-loop pass: age and cut over handoffs, drain the
// demand window, replicate shards that exceed the hot threshold, shed
// replicas that no longer earn their keep, and migrate the hottest
// sole-replica shard off an overloaded node. Deterministic given the
// sequence of windows: every choice sorts with explicit tie-breaks.
func (m *Manager) Tick() {
	m.mu.Lock()
	defer m.mu.Unlock()
	sm := m.cfg.Map
	m.stats.Ticks++

	// 1. Age in-flight handoffs; cut over the ones whose double-read
	// window has been open long enough for the new primary to warm.
	for _, s := range sortedKeys(m.handoff) {
		m.handoff[s]++
		if m.handoff[s] >= handoffTicks {
			if sm.FinishMigration(s) {
				m.stats.Cutovers++
				m.ctCutover.Inc()
			}
			delete(m.handoff, s)
		}
	}

	m.loads = sm.DrainLoads(m.loads)
	var total int64
	for _, l := range m.loads {
		total += l
	}
	m.lastTot = total
	nodes := sm.Nodes()
	if total < m.cfg.MinTickOps {
		m.updateGauges()
		return
	}
	nl := m.nodeLoads(m.loads, nodes)
	fairNode := float64(total) / float64(len(nodes))
	hotLoad := hotFrac * fairNode

	// 2. Replication: visit shards by descending demand. A shard wants
	// enough replicas that each carries at most hotFrac of a node's
	// fair share; extra replicas land on the least-loaded nodes.
	order := make([]int, sm.Shards())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if m.loads[order[a]] != m.loads[order[b]] {
			return m.loads[order[a]] > m.loads[order[b]]
		}
		return order[a] < order[b]
	})
	for _, s := range order {
		load := m.loads[s]
		pl := sm.Placement(s)
		if pl.Migrating() {
			continue
		}
		want := 1
		if load > 0 {
			want = int(math.Ceil(float64(load) / hotLoad))
		}
		want = min(want, len(nodes))
		cur := len(pl.Replicas)
		for want > cur {
			n := pickNode(nodes, nl, pl, false)
			if n == "" || !sm.Replicate(s, n) {
				break
			}
			cur++
			m.stats.Replicates++
			m.ctReplicate.Inc()
			// Re-estimate: the shard's load now spreads one node wider.
			delta := float64(load) / float64(cur)
			nl[n] += delta
			pl = sm.Placement(s)
		}
		if want < cur {
			// Shed one replica per tick (gentle decay): the most-loaded
			// secondary gives its share back first.
			n := pickNode(nodes, nl, pl, true)
			if n != "" && sm.Unreplicate(s, n) {
				m.stats.Unreplicates++
				m.ctUnreplicate.Inc()
				nl[n] -= float64(load) / float64(cur)
			}
		}
	}

	// 3. Migration: one at a time, and only when a node is overloaded
	// beyond what replication already fixed. The hottest sole-replica
	// shard on the hottest node moves to the coldest node through the
	// map's double-read handoff.
	if len(m.handoff) == 0 {
		hot, cold := extremes(nodes, nl)
		if hot != cold && nl[hot] > m.cfg.MigrateFrac*fairNode {
			best, bestLoad := -1, int64(0)
			for _, s := range order {
				pl := sm.Placement(s)
				if pl.Migrating() || len(pl.Replicas) != 1 || pl.Primary() != hot {
					continue
				}
				if m.loads[s] > bestLoad {
					best, bestLoad = s, m.loads[s]
				}
			}
			if best >= 0 && sm.BeginMigration(best, cold) {
				m.handoff[best] = 0
				m.stats.Migrates++
				m.ctMigrate.Inc()
			}
		}
	}
	m.nodeLoad = nl
	m.updateGauges()
}

// updateGauges publishes the manager's levels. Callers hold m.mu.
func (m *Manager) updateGauges() {
	m.gHandoffs.Set(int64(len(m.handoff)))
	var replicated int64
	sm := m.cfg.Map
	for s := 0; s < sm.Shards(); s++ {
		if len(sm.Placement(s).Replicas) > 1 {
			replicated++
		}
	}
	m.gReplicated.Set(replicated)
}

// pickNode chooses the least-loaded node NOT holding the shard (add) or
// the most-loaded secondary replica (shed). Ties break by name.
func pickNode(nodes []string, nl map[string]float64, pl cluster.ShardPlacement, shed bool) string {
	best := ""
	var bestLoad float64
	for _, n := range nodes {
		if shed {
			if n == pl.Primary() || !pl.HasReplica(n) {
				continue
			}
			if best == "" || nl[n] > bestLoad || (nl[n] == bestLoad && n < best) {
				best, bestLoad = n, nl[n]
			}
		} else {
			if pl.HasReplica(n) {
				continue
			}
			if best == "" || nl[n] < bestLoad || (nl[n] == bestLoad && n < best) {
				best, bestLoad = n, nl[n]
			}
		}
	}
	return best
}

// extremes returns the most- and least-loaded nodes (ties by name).
func extremes(nodes []string, nl map[string]float64) (hot, cold string) {
	for _, n := range nodes {
		if hot == "" || nl[n] > nl[hot] {
			hot = n
		}
		if cold == "" || nl[n] < nl[cold] {
			cold = n
		}
	}
	return hot, cold
}

func sortedKeys(m map[int]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// status renders the manager's live state for /statusz: the detector's
// current top-k keys and every shard whose placement deviates from the
// static seed (replicated or mid-handoff), plus last-window node loads.
func (m *Manager) status(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sm := m.cfg.Map
	st := m.stats
	fmt.Fprintf(w, "  ticks=%d replicate=%d unreplicate=%d migrate=%d cutover=%d window_ops=%d\n",
		st.Ticks, st.Replicates, st.Unreplicates, st.Migrates, st.Cutovers, m.lastTot)
	if m.cfg.Detector != nil {
		fmt.Fprintf(w, "  hot keys (top %d of %d observed ops):\n", statusTopK, m.cfg.Detector.Ops())
		for _, hk := range m.cfg.Detector.TopK(statusTopK) {
			key := cluster.TrimEpoch(hk.Key)
			shard := sm.ShardOf(key)
			pl := sm.Placement(shard)
			fmt.Fprintf(w, "    %-24s count~%-8d err<=%-6d shard=%d replicas=%v",
				key, hk.Count, hk.Err, shard, pl.Replicas)
			if pl.Migrating() {
				fmt.Fprintf(w, " migrating-from=%s", pl.Old)
			}
			fmt.Fprintln(w)
		}
	}
	for s := 0; s < sm.Shards(); s++ {
		pl := sm.Placement(s)
		if len(pl.Replicas) <= 1 && !pl.Migrating() {
			continue
		}
		fmt.Fprintf(w, "  shard %-3d epoch=%-3d replicas=%v", s, pl.Epoch, pl.Replicas)
		if pl.Migrating() {
			fmt.Fprintf(w, " old=%s@e%d", pl.Old, pl.OldEpoch)
		}
		fmt.Fprintln(w)
	}
	for _, n := range sortedNodes(m.nodeLoad) {
		fmt.Fprintf(w, "  node %-16s load=%.0f\n", n, m.nodeLoad[n])
	}
}

func sortedNodes(nl map[string]float64) []string {
	out := make([]string, 0, len(nl))
	for n := range nl {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
