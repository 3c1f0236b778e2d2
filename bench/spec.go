package main

import "cachecost/internal/core"

// spec is one benchmark workload: a deployment, a seeded op stream and
// the fixed op counts the driver measures in. Names are stable — later
// issues cite them.
type spec struct {
	name string
	// why is the one-line rationale published in BENCHMARK.json.
	why  string
	arch core.Arch
	// tcp wires the deployment over real loopback sockets the way
	// cmd/appserver does, with two closed-loop client connections.
	tcp bool
	// meta draws the stream from workload.NewMetaKV (30 % writes, ~10 B
	// values, α 0.9) instead of the synthetic Zipfian generator.
	meta      bool
	keys      int
	valueSize int
	alpha     float64
	readRatio float64
	// blockFrac, cacheFrac size the storage block cache (per replica)
	// and the architecture's cache tier as a share of the working set.
	blockFrac, cacheFrac float64
	// warmOps run before timing; streamOps are pre-drawn for the window
	// (the driver cycles the stream if the window outlasts it); sliceOps
	// is the fixed op count of one measured slice, sized to ≈0.4 s on
	// two vCPUs so an 8 s window holds about 20 slices.
	warmOps, streamOps, sliceOps int
	// div is set by scaled and also divides the replay's call counts;
	// zero means unscaled.
	div int
}

var specs = []spec{
	{
		name: "base_1k",
		why:  "every op is a storage statement: sql/plan/kv/raft and the storage hop do the work, cache layers are bypassed",
		arch: core.Base, keys: 10000, valueSize: 1 << 10, alpha: 1.2, readRatio: 0.9,
		blockFrac: 0.15, cacheFrac: 0.6,
		warmOps: 4000, streamOps: 80000, sliceOps: 2500,
	},
	{
		name: "remote_1k",
		why:  "lookaside hits (~0.85) over the loopback hop: remotecache, wire and rpc dominate; misses fill, writes invalidate",
		arch: core.Remote, keys: 10000, valueSize: 1 << 10, alpha: 1.2, readRatio: 0.9,
		blockFrac: 0.15, cacheFrac: 0.6,
		warmOps: 8000, streamOps: 130000, sliceOps: 4000,
	},
	{
		name: "linked_hit_1k",
		why:  "read-only in-process hits at ratio 1.0: only the front door, linkedcache and meter run, so harness overhead is undiluted",
		arch: core.Linked, keys: 10000, valueSize: 1 << 10, alpha: 1.2, readRatio: 1,
		blockFrac: 0.15, cacheFrac: 2,
		streamOps: 200000, sliceOps: 24000,
	},
	{
		name: "remote_small_writeheavy",
		why:  "30% writes of ~10 B values: replicated Exec, raft ships, cache Delete and per-message cost dominate, bytes are negligible",
		arch: core.Remote, meta: true, keys: 10000,
		blockFrac: 0.15, cacheFrac: 0.6,
		warmOps: 6000, streamOps: 70000, sliceOps: 2800,
	},
	{
		name: "remote_16k",
		why:  "16 KB values: per-byte work (codec copies, PerByte burn, GC) dominates, so copy-vs-alias changes show here",
		arch: core.Remote, keys: 2000, valueSize: 16 << 10, alpha: 1.2, readRatio: 0.9,
		blockFrac: 0.15, cacheFrac: 0.6,
		warmOps: 4000, streamOps: 60000, sliceOps: 2600,
	},
	{
		name: "tcp_remote_1k",
		why:  "the remote_1k stream over real loopback sockets, pools of 2, 2 clients: the only run of TCP framing, Pool and readLoop",
		arch: core.Remote, tcp: true, keys: 10000, valueSize: 1 << 10, alpha: 1.2, readRatio: 0.9,
		blockFrac: 0.15, cacheFrac: 0.6,
		warmOps: 8000, streamOps: 120000, sliceOps: 4000,
	},
}

// scaled divides the key population and every op count by div (the
// smoke test runs the whole pipeline at 1/100 through this same path).
func (s spec) scaled(div int) spec {
	atLeast := func(n, floor int) int {
		if n == 0 {
			return 0
		}
		return max(n/div, floor)
	}
	s.div = div
	s.keys = atLeast(s.keys, 100)
	s.warmOps = atLeast(s.warmOps, 50)
	s.streamOps = atLeast(s.streamOps, 400)
	s.sliceOps = atLeast(s.sliceOps, 200)
	return s
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// metric describes one published number. For layer metrics, moves and on
// record the prediction made before measuring: which end-to-end metric
// the number should move, on which workloads.
type metric struct {
	name, unit, better string
	// bound is the end-to-end regression bound (share of the parent's
	// median); zero for layer metrics, which are not gated.
	bound float64
	moves string
	on    string
}

// endToEnd is what a user of the laboratory sees. failed_ops_frac from
// the issue is carried by the result's attempted/failed/correct fields
// instead: the contract forbids a metric that is 0 on a clean tree.
var endToEnd = []metric{
	{name: "throughput_ops_s", unit: "1/s", better: "higher", bound: 0.15},
	{name: "latency_p50_us", unit: "us", better: "lower", bound: 0.15},
	{name: "latency_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "cost_udollar_per_mreq", unit: "uUSD/Mreq", better: "lower", bound: 0.15},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.05},
	{name: "alloc_bytes_per_op", unit: "B", better: "lower", bound: 0.05},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

const (
	onLinked = "linked_hit_1k; no change on base_1k"
	onRemote = "remote_1k, tcp_remote_1k"
	on16k    = "remote_16k; no change on remote_small_writeheavy"
	onWrite  = "remote_small_writeheavy; latency_p99_us on remote_1k and base_1k"
	onBase   = "base_1k; no change on linked_hit_1k"
	onTCP    = "tcp_remote_1k only"
	onAll    = "every workload"

	mvLinked = "latency_p50_us, throughput_ops_s, allocs_per_op"
	mvRemote = "latency_p50_us, cost_udollar_per_mreq"
	mvBytes  = "throughput_ops_s, alloc_bytes_per_op"
	mvWrite  = "throughput_ops_s, latency_p50_us"
	mvBase   = "throughput_ops_s, cost_udollar_per_mreq"
	mvTCP    = "throughput_ops_s, latency_p99_us"
)

// perLayer lists every layer metric, grouped by source: the traced
// window, the meter fold, the layer replay, and the ledger built from
// the first and third.
var perLayer = []metric{
	// Traced window: spans recorded by the benchmark's spanConn wrappers.
	{name: "core.self_us_per_op", unit: "us", better: "lower", moves: mvLinked, on: onLinked},
	{name: "core.trace_overhead_frac", unit: "ratio", better: "lower", moves: "none: the benchmark's own tracing cost, must stay <= 0.05", on: onAll},
	{name: "remotecache.hop_us_per_op", unit: "us", better: "lower", moves: mvRemote, on: onRemote},
	{name: "remotecache.calls_per_op", unit: "count", better: "lower", moves: mvRemote, on: onRemote},
	{name: "remotecache.get_us", unit: "us", better: "lower", moves: mvRemote, on: onRemote},
	{name: "remotecache.set_us", unit: "us", better: "lower", moves: mvWrite, on: onWrite},
	{name: "remotecache.delete_us", unit: "us", better: "lower", moves: mvWrite, on: onWrite},
	{name: "remotecache.hit_ratio", unit: "ratio", better: "higher", moves: mvRemote, on: onRemote},
	{name: "linkedcache.hit_ratio", unit: "ratio", better: "higher", moves: mvLinked, on: "linked_hit_1k (must be exactly 1)"},
	{name: "storage.hop_us_per_op", unit: "us", better: "lower", moves: mvBase, on: onBase},
	{name: "storage.calls_per_op", unit: "count", better: "lower", moves: mvBase, on: onBase},
	{name: "storage.query_us", unit: "us", better: "lower", moves: mvBase, on: onBase},
	{name: "storage.exec_us", unit: "us", better: "lower", moves: mvWrite, on: onWrite},

	// Meter fold: the workload's own meter over the untraced slices.
	{name: "meter.app_busy_us_per_op", unit: "us", better: "lower", moves: "cost_udollar_per_mreq", on: onLinked},
	{name: "meter.app.cache_busy_us_per_op", unit: "us", better: "lower", moves: "cost_udollar_per_mreq", on: onLinked},
	{name: "meter.remotecache_busy_us_per_op", unit: "us", better: "lower", moves: "cost_udollar_per_mreq", on: onRemote},
	{name: "meter.storage.rpc_busy_us_per_op", unit: "us", better: "lower", moves: "cost_udollar_per_mreq", on: onBase},
	{name: "meter.storage.sql_busy_us_per_op", unit: "us", better: "lower", moves: "cost_udollar_per_mreq", on: onBase},
	{name: "meter.storage.exec_busy_us_per_op", unit: "us", better: "lower", moves: "cost_udollar_per_mreq", on: onBase},
	{name: "meter.storage.kv_busy_us_per_op", unit: "us", better: "lower", moves: "cost_udollar_per_mreq", on: onBase},
	{name: "meter.storage.raft_busy_us_per_op", unit: "us", better: "lower", moves: "cost_udollar_per_mreq", on: onWrite},
	{name: "meter.unmetered_frac", unit: "ratio", better: "lower", moves: "latency_p50_us without cost_udollar_per_mreq", on: onLinked},
	{name: "runtime.gc_cpu_s_per_mop", unit: "s/Mop", better: "lower", moves: mvBytes, on: on16k},

	// Layer replay: exported functions timed alone on this workload's inputs.
	{name: "meter.burn_ns_per_kunit", unit: "ns", better: "lower", moves: "everything: machine-speed calibration, not a target", on: onAll},
	{name: "meter.stopwatch_ns", unit: "ns", better: "lower", moves: mvLinked, on: onLinked},
	{name: "wire.encode_ns", unit: "ns", better: "lower", moves: mvBytes, on: on16k},
	{name: "wire.decode_ns", unit: "ns", better: "lower", moves: mvBytes, on: on16k + "; at 1 KB latency_p50_us on remote_1k"},
	{name: "wire.decode_allocs", unit: "count", better: "lower", moves: "allocs_per_op", on: onRemote},
	{name: "rpc.loopback_call_ns", unit: "ns", better: "lower", moves: mvRemote, on: onRemote},
	{name: "rpc.loopback_real_ns", unit: "ns", better: "lower", moves: mvBytes, on: on16k},
	{name: "rpc.loopback_allocs", unit: "count", better: "lower", moves: "allocs_per_op", on: onRemote},
	{name: "rpc.front_dispatch_ns", unit: "ns", better: "lower", moves: mvLinked, on: onLinked},
	{name: "rpc.front_dispatch_real_ns", unit: "ns", better: "lower", moves: mvLinked, on: onLinked},
	{name: "rpc.front_dispatch_allocs", unit: "count", better: "lower", moves: mvLinked, on: onLinked},
	{name: "rpc.tcp_call_ns", unit: "ns", better: "lower", moves: mvTCP, on: onTCP},
	{name: "rpc.tcp_call_allocs", unit: "count", better: "lower", moves: "allocs_per_op", on: onTCP},
	{name: "rpc.tcp_shared_conn_calls_s", unit: "1/s", better: "higher", moves: mvTCP, on: onTCP},
	{name: "cache.lru_get_ns", unit: "ns", better: "lower", moves: mvLinked, on: onLinked},
	{name: "cache.lru_put_ns", unit: "ns", better: "lower", moves: mvWrite, on: onWrite},
	{name: "linkedcache.get_hit_ns", unit: "ns", better: "lower", moves: mvLinked, on: onLinked},
	{name: "linkedcache.getorload_hit_ns", unit: "ns", better: "lower", moves: mvLinked, on: onLinked},
	{name: "linkedcache.getorload_hit_allocs", unit: "count", better: "lower", moves: mvLinked, on: onLinked},
	{name: "linkedcache.put_ns", unit: "ns", better: "lower", moves: mvLinked, on: onLinked},
	{name: "remotecache.get_hit_ns", unit: "ns", better: "lower", moves: mvRemote, on: onRemote},
	{name: "remotecache.get_hit_real_ns", unit: "ns", better: "lower", moves: mvRemote, on: onRemote},
	{name: "remotecache.get_hit_allocs", unit: "count", better: "lower", moves: "allocs_per_op", on: onRemote},
	{name: "remotecache.server_get_allocs", unit: "count", better: "lower", moves: "allocs_per_op", on: onRemote},
	{name: "remotecache.set_ns", unit: "ns", better: "lower", moves: mvWrite, on: onWrite},
	{name: "remotecache.set_real_ns", unit: "ns", better: "lower", moves: mvWrite, on: onWrite},
	{name: "remotecache.delete_ns", unit: "ns", better: "lower", moves: mvWrite, on: onWrite},
	{name: "remotecache.delete_real_ns", unit: "ns", better: "lower", moves: mvWrite, on: onWrite},
	{name: "storage.query_ns", unit: "ns", better: "lower", moves: mvBase, on: onBase},
	{name: "storage.query_real_ns", unit: "ns", better: "lower", moves: mvBase, on: onBase},
	{name: "storage.query_allocs", unit: "count", better: "lower", moves: "allocs_per_op", on: onBase},
	{name: "storage.exec_ns", unit: "ns", better: "lower", moves: mvWrite, on: onWrite},
	{name: "storage.exec_real_ns", unit: "ns", better: "lower", moves: mvWrite, on: onWrite},
	{name: "storage.exec_allocs", unit: "count", better: "lower", moves: "allocs_per_op", on: onWrite},
	{name: "storage.sql.parse_ns", unit: "ns", better: "lower", moves: mvBase, on: onBase},
	{name: "storage.sql.parse_allocs", unit: "count", better: "lower", moves: "allocs_per_op", on: onBase},
	{name: "storage.plan.point_select_ns", unit: "ns", better: "lower", moves: mvBase, on: onBase},
	{name: "storage.kv.get_ns", unit: "ns", better: "lower", moves: mvBase, on: onBase},
	{name: "storage.kv.put_ns", unit: "ns", better: "lower", moves: mvWrite, on: onWrite},
	{name: "storage.kv.block_hit_ratio", unit: "ratio", better: "higher", moves: mvBase, on: onBase},
	{name: "storage.raft.propose_ns", unit: "ns", better: "lower", moves: mvWrite, on: onWrite},
	{name: "telemetry.observe_ns", unit: "ns", better: "lower", moves: mvTCP, on: onTCP},
	{name: "telemetry.plane_ns_per_op", unit: "ns", better: "lower", moves: mvLinked, on: onLinked + " (budget: 5% of a Linked hit)"},
	{name: "flight.fastpath_ns", unit: "ns", better: "lower", moves: mvLinked, on: onLinked},
	{name: "flight.fastpath_allocs", unit: "count", better: "lower", moves: mvLinked, on: onLinked},
	{name: "workload.next_ns", unit: "ns", better: "lower", moves: "setup_s", on: onAll},

	// Ledger: the ROADMAP's three buckets, from the trace and the replay.
	{name: "ledger.modeled_us_per_op", unit: "us", better: "lower", moves: "none: lowering it changes the paper's subject, not our overhead", on: onAll},
	{name: "ledger.real_us_per_op", unit: "us", better: "lower", moves: mvBase, on: onBase},
	{name: "ledger.overhead_us_per_op", unit: "us", better: "lower", moves: mvLinked, on: onLinked},
	{name: "ledger.overhead_frac", unit: "ratio", better: "lower", moves: mvLinked, on: onLinked},
	{name: "ledger.replay_gap_frac", unit: "ratio", better: "lower", moves: "none: how well replays compose to the traced hop time (stated bound 0.20)", on: onAll},
}
