package core

import (
	"fmt"
	"time"

	"cachecost/internal/workload"
)

// hotshardNodes and hotshardConcurrency fix the cache-tier shape for the
// hotshard figure: four nodes, each capped at two concurrently served
// requests. The cap is what makes skew hurt — a node owning the
// celebrity shard saturates its slots and queues, while its neighbours
// idle — so the figure measures placement, not host-CPU borrowing.
const (
	hotshardNodes       = 4
	hotshardConcurrency = 1
	// hotshardServe is each node's wall-clock serving time per request:
	// a single-slot node serves ~333 req/s, independent of host CPU (the
	// slot sleeps rather than burns, so four modeled nodes saturate
	// independently even on one core). At this figure's offered rate the
	// node holding the celebrity shard genuinely saturates while a
	// balanced tier fits comfortably: aggregate capacity is ~4x a node,
	// and the static tier's capacity is set by its hottest node alone.
	hotshardServe = 3 * time.Millisecond
	// hotshardOverload is the offered-load multiplier over the static
	// tier's probed closed-loop capacity.
	hotshardOverload = 1.2
	// hotshardSLO is each request's latency budget: 25 serving times. A
	// request queued ~two dozen deep behind a saturated node misses it;
	// a balanced node at ~0.85 utilization almost never queues that
	// deep. The overload figure's probe-derived SLO is no use here — a
	// closed-loop probe of a slot-limited tier measures its own worker
	// pile-up, not an unloaded latency.
	hotshardSLO = 25 * hotshardServe
)

// FigHotShard measures what dynamic shard management is worth when the
// heavy hitters move. The workload is Zipfian with a popularity flip
// halfway through the metered window (workload.SyntheticConfig.FlipAt):
// the keys that were hottest go cold and a fresh, unpredictable set
// becomes hot — a launch-day traffic shift. Both rows run the identical
// op stream open-loop at 1.5x the probed closed-loop capacity of the
// static tier, each op carrying the same SLO deadline:
//
//   - static: CacheNodes=4 with the shard map frozen at its initial
//     placement. Whichever node the flip lands on becomes the hot spot.
//   - managed: the same tier with the shard manager ticking — hot-key
//     detection on the serve path, replica fan-out for hot shards,
//     live migration off overloaded nodes.
//
// The interesting columns are goodput (ops served within the SLO per
// second of schedule time), the intended-arrival p99 (measured from each
// op's scheduled arrival, so queueing at the hot node is charged
// honestly), and node_spread — each cache node's served-op count
// max/mean, 1.0 when perfectly balanced, 4.0 when one node serves
// everything.
func FigHotShard(o FigOptions) (*Table, error) {
	o.applyDefaults()
	// Open-loop driving needs enough lanes that the hot node's queue — not
	// the client worker pool — is the bottleneck: lanes only sleep through
	// the modeled serving time, so 24 of them sustain several times the
	// offered rate even when some park on a saturated node.
	par := max(o.Parallelism, 24)
	cfg := workload.SyntheticConfig{
		Keys: o.Keys, Alpha: 1.2, ReadRatio: 0.9, ValueSize: 1 << 10, Seed: o.Seed,
		// OnOp indexes the full stream (warmup + metered), and FlipAt
		// counts drawn ops the same way: flip halfway through the metered
		// window, after the caches and the detector have warmed on the
		// pre-flip hot set.
		FlipAt: o.Warmup + o.Ops/2,
	}

	// Probe the static tier's closed-loop capacity on the steady (unflipped)
	// workload; both rows are then offered the same overload, so any
	// goodput difference is placement, not pacing.
	probeCfg := cfg
	probeCfg.FlipAt = 0
	probe, err := o.hotshardCell("", probeCfg, par, false, nil, 0)
	if err != nil {
		return nil, err
	}
	capacity := probe.res.Throughput
	if capacity <= 0 {
		return nil, fmt.Errorf("core: hotshard capacity probe measured no throughput")
	}
	slo := o.SLO
	if slo <= 0 {
		slo = hotshardSLO
	}
	arrival := &workload.ArrivalConfig{
		Process: workload.ArrivalPoisson,
		Rate:    hotshardOverload * capacity,
		Seed:    o.Seed,
	}

	t := &Table{
		ID: "hotshard",
		Title: fmt.Sprintf("Dynamic shard management through a popularity flip (%d nodes, %.2fx offered, flip at metered op %d)",
			hotshardNodes, hotshardOverload, o.Ops/2),
		Header: []string{"mode", "offered_qps", "goodput_qps", "cost/Mreq_$",
			"p99_intended_ms", "p99_send_ms", "hit_ratio", "node_spread",
			"deadline_exp", "replicates", "migrates", "cutovers"},
	}
	for _, managed := range []bool{false, true} {
		mode := "static"
		if managed {
			mode = "managed"
		}
		cell, err := o.hotshardCell("hotshard/"+mode, cfg, par, managed, arrival, slo)
		if err != nil {
			return nil, err
		}
		res := cell.res
		goodput := 0.0
		if sp := res.ScheduleSpan.Seconds(); sp > 0 {
			goodput = float64(int64(res.Executed)-res.Late) / sp
		}
		t.AddRow(mode, res.OfferedQPS, goodput, res.CostPerMReq,
			float64(res.LatencyP99)/1e6, float64(res.SendLatencyP99)/1e6,
			res.HitRatio, cell.spread,
			res.Path.Deadline,
			cell.stats.Replicates, cell.stats.Migrates, cell.stats.Cutovers)
	}
	t.Notes = append(t.Notes,
		"identical op stream, identical offered load: the only difference is whether the shard map may move",
		"node_spread is served ops max/mean across cache nodes (1.0 balanced, 4.0 one node serves all); the static row concentrates after the flip",
		"p99_intended_ms is coordinated-omission-free (clocked from scheduled arrival); the hot node's queueing shows here first",
		"the managed row pays for its balance in replicate/migrate actions — fan-out writes and double-read handoffs are metered like any other cache message")
	return t, nil
}

// hotshardStats is the manager-action slice of a hotshard cell's result
// (zero for the static row).
type hotshardStats struct {
	Replicates, Migrates, Cutovers int64
}

type hotshardCellResult struct {
	res    *RunResult
	spread float64
	stats  hotshardStats
}

// hotshardCell runs one row: a fresh 4-node cache tier, optionally
// managed, driven open-loop when arrival != nil (closed-loop probe
// otherwise). The managed row ticks the shard manager from the driver's
// serialized OnOp hook every max(100, Ops/25) ops, so reshaping cadence
// scales with the experiment and stays deterministic in op space.
func (o FigOptions) hotshardCell(label string, cfg workload.SyntheticConfig, par int, managed bool, arrival *workload.ArrivalConfig, slo time.Duration) (*hotshardCellResult, error) {
	c := o.synthCell(Remote, cfg)
	c.svc.Parallelism = par
	// The remote tier holds the whole population: capacity misses are
	// rare, storage stays a bit player, and the figure measures the
	// cache tier's placement physics rather than miss costs.
	c.svc.RemoteCacheBytes = int64(cfg.Keys) * int64(cfg.ValueSize) * 125 / 100
	c.svc.CacheNodes = hotshardNodes
	c.svc.CacheNodeConcurrency = hotshardConcurrency
	c.svc.CacheNodeServeTime = hotshardServe
	if managed {
		// Migration is the heavy hammer — an epoch bump plus a double-read
		// window — so it is reserved for severe, persistent overload;
		// replication (cheap for a 90%-read workload) does the routine
		// balancing.
		c.svc.ShardMgr = &ShardMgrConfig{MigrateFrac: 1.6}
	}
	if arrival != nil {
		c.openLoop(*arrival, slo)
	}
	// Seed the cache tier with the whole population, as an operator warms
	// a fleet before shifting traffic: the metered window then measures
	// the tier's placement physics, not compulsory-miss storage trips.
	c.built = func(kv *KVService) error {
		items, err := PreloadItems(c.gen)
		if err != nil {
			return err
		}
		return kv.WarmRemoteCache(items)
	}
	tickEvery := o.Ops / 25
	if tickEvery < 100 {
		tickEvery = 100
	}
	// baseOps snapshots each node's served count as the metered window
	// opens, so node_spread reflects metered traffic only (warming and
	// warmup are deliberately balanced and would wash the signal out).
	var baseOps map[string]int64
	c.run.OnOp = func(n int) {
		if n == o.Warmup {
			baseOps = c.kv.CacheNodeOps()
		}
		if mgr := c.kv.ShardManager(); mgr != nil && n > 0 && n%tickEvery == 0 {
			mgr.Tick()
		}
	}
	res, err := o.runCell(label, c)
	if err != nil {
		return nil, err
	}
	metered := c.kv.CacheNodeOps()
	for n, v := range baseOps {
		metered[n] -= v
	}
	out := &hotshardCellResult{res: res, spread: nodeSpread(metered)}
	if mgr := c.kv.ShardManager(); mgr != nil {
		st := mgr.Stats()
		out.stats = hotshardStats{Replicates: st.Replicates, Migrates: st.Migrates, Cutovers: st.Cutovers}
	}
	return out, nil
}

// nodeSpread reduces per-node served-op counts to max/mean: 1.0 when
// every node serves the same share, len(ops) when one serves everything.
func nodeSpread(ops map[string]int64) float64 {
	if len(ops) == 0 {
		return 0
	}
	var max, sum int64
	for _, v := range ops {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(ops))
	return float64(max) / mean
}
