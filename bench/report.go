package main

import "cachecost/internal/core"

// endToEndMetrics folds the untraced slices of a window into the
// end-to-end metrics: each is the median over the slices, which a noisy
// neighbour has to disturb half of to move. The tail is the exception.
// On a shared machine neighbours only ever add to a slice's p99, and
// they do so in bursts that outlast a slice, so the first quartile — the
// tail a quiet stretch shows — is twice as steady as the median and
// still moves when the program's own tail does.
func endToEndMetrics(slices []sliceStat, setupS float64) map[string]float64 {
	med := func(f func(sliceStat) float64) float64 { return median(slices, untraced, f) }
	return map[string]float64{
		"throughput_ops_s":      med(func(s sliceStat) float64 { return float64(s.ops) / s.wall.Seconds() }),
		"latency_p50_us":        med(func(s sliceStat) float64 { return s.p50 }),
		"latency_p99_us":        quantile(slices, untraced, func(s sliceStat) float64 { return s.p99 }, 0.25),
		"cost_udollar_per_mreq": med(func(s sliceStat) float64 { return s.cost }),
		"allocs_per_op":         med(func(s sliceStat) float64 { return s.allocs }),
		"alloc_bytes_per_op":    med(func(s sliceStat) float64 { return s.allocBytes }),
		"setup_s":               setupS,
	}
}

// meterComponents are the meter line items the fold reports.
var meterComponents = []string{
	"app", "app.cache", "remotecache",
	"storage.rpc", "storage.sql", "storage.exec", "storage.kv", "storage.raft",
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics folds a traced window into the per-layer metrics: the
// span fold, the meter fold over the untraced slices, the replay, and
// the ledger that sets the first against the third.
func layerMetrics(sp spec, slices []sliceStat, st *traceStats, rp map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range rp {
		out[k] = v
	}
	// Span fold.
	roots := float64(st.roots)
	perOp := func(ns int64) float64 { return ratio(float64(ns)/1e3, roots) }
	perCall := func(kind uint8) float64 { return ratio(float64(st.durNS[kind])/1e3, float64(st.calls[kind])) }
	callsPerOp := func(kinds ...uint8) (n float64) {
		for _, k := range kinds {
			n += ratio(float64(st.calls[k]), roots)
		}
		return n
	}
	out["core.self_us_per_op"] = perOp(st.selfNS)
	// Whole-side rates, not medians of slices: at 16 KB a slice holds one
	// or two collections, and which side the odd one lands on would
	// otherwise decide the sign.
	rate := func(keep func(sliceStat) bool) float64 {
		var ops, wall float64
		for _, s := range slices {
			if keep(s) {
				ops, wall = ops+float64(s.ops), wall+s.wall.Seconds()
			}
		}
		return ratio(ops, wall)
	}
	out["core.trace_overhead_frac"] = 1 - ratio(rate(isTraced), rate(untraced))
	out["remotecache.hop_us_per_op"] = perOp(st.hopNS[layerCache])
	out["remotecache.calls_per_op"] = callsPerOp(kindCacheGet, kindCacheSet, kindCacheDelete, kindCacheOther)
	out["remotecache.get_us"] = perCall(kindCacheGet)
	out["remotecache.set_us"] = perCall(kindCacheSet)
	out["remotecache.delete_us"] = perCall(kindCacheDelete)
	out["storage.hop_us_per_op"] = perOp(st.hopNS[layerStorage])
	out["storage.calls_per_op"] = callsPerOp(kindQuery, kindExec, kindStorageOther)
	out["storage.query_us"] = perCall(kindQuery)
	out["storage.exec_us"] = perCall(kindExec)

	// Counts taken at the same boundaries, over the whole window.
	var hits, reads, blockHits, blockReads, gcCPU, ops float64
	for _, s := range slices {
		hits, reads = hits+float64(s.hits), reads+float64(s.reads)
		blockHits, blockReads = blockHits+float64(s.blockHits), blockReads+float64(s.blockReads)
		if !s.traced {
			gcCPU, ops = gcCPU+s.gcCPU, ops+float64(s.ops)
		}
	}
	out["remotecache.hit_ratio"], out["linkedcache.hit_ratio"] = 0, 0
	if sp.arch == core.Remote {
		out["remotecache.hit_ratio"] = ratio(hits, reads)
	} else {
		out["linkedcache.hit_ratio"] = ratio(hits, reads)
	}
	out["storage.kv.block_hit_ratio"] = ratio(blockHits, blockReads)
	out["runtime.gc_cpu_s_per_mop"] = ratio(gcCPU, ops) * 1e6

	// Meter fold.
	for _, c := range meterComponents {
		out["meter."+c+"_busy_us_per_op"] = median(slices, untraced, func(s sliceStat) float64 { return s.busyUS[c] })
	}
	latency := median(slices, untraced, func(s sliceStat) float64 { return s.meanUS })
	busy := median(slices, untraced, func(s sliceStat) float64 {
		var sum float64
		for _, us := range s.busyUS {
			sum += us
		}
		return sum
	})
	out["meter.unmetered_frac"] = 1 - ratio(busy, latency)

	// Ledger. Each hop kind contributes calls/op × its replayed cost;
	// the front door contributes its dispatch charge once per op.
	hops := []struct {
		kind uint8
		name string
	}{
		{kindCacheGet, "remotecache.get_hit"},
		{kindCacheSet, "remotecache.set"},
		{kindCacheDelete, "remotecache.delete"},
		{kindQuery, "storage.query"},
		{kindExec, "storage.exec"},
	}
	modeled := (rp["rpc.front_dispatch_ns"] - rp["rpc.front_dispatch_real_ns"]) / 1e3
	real := rp["rpc.front_dispatch_real_ns"] / 1e3
	if sp.arch == core.Linked {
		// Reads are served in process by the linked cache's own lookup.
		real += ratio(float64(st.calls[kindRead]), roots) * rp["linkedcache.getorload_hit_ns"] / 1e3
	}
	var composed float64
	for _, h := range hops {
		n := callsPerOp(h.kind)
		def, zero := rp[h.name+"_ns"]/1e3, rp[h.name+"_real_ns"]/1e3
		modeled += n * (def - zero)
		real += n * zero
		composed += n * def
	}
	traced := perOp(st.hopNS[layerCache] + st.hopNS[layerStorage])
	out["ledger.modeled_us_per_op"] = modeled
	out["ledger.real_us_per_op"] = real
	out["ledger.overhead_us_per_op"] = latency - modeled - real
	out["ledger.overhead_frac"] = ratio(latency-modeled-real, latency)
	gap := ratio(composed-traced, traced)
	if gap < 0 {
		gap = -gap
	}
	out["ledger.replay_gap_frac"] = gap
	return out
}
