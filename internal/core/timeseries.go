package core

import (
	"fmt"

	"cachecost/internal/fault"
	"cachecost/internal/telemetry"
	"cachecost/internal/workload"
)

// deltaCounter sums a windowed snapshot's counters matching name, and —
// when labelVal is non-empty — carrying a label with that value.
func deltaCounter(s telemetry.Snapshot, name, labelVal string) float64 {
	var v float64
	for _, c := range s.Counters {
		if c.Name != name {
			continue
		}
		if labelVal == "" {
			v += c.Value
			continue
		}
		for _, l := range c.Labels {
			if l.Value == labelVal {
				v += c.Value
				break
			}
		}
	}
	return v
}

// deltaHist returns a windowed snapshot's histogram state for name.
func deltaHist(s telemetry.Snapshot, name string) (telemetry.HistState, bool) {
	for _, h := range s.Hists {
		if h.Name == name {
			return h, true
		}
	}
	return telemetry.HistState{}, false
}

// FigTimeseries is the continuous-telemetry scenario: one Remote-arch
// deployment driven through warm-up, steady state, a cache-node kill and
// its slow-start recovery, with the telemetry registry snapshotted at
// window edges along the way. Each row is one window's delta — the
// windowed percentiles come from differencing retained histogram
// buckets, the same mechanism the JSONL snapshot recorder uses. The
// expected shape: cold-cache warm-up latency settles, the kill window
// shows the hit ratio collapse and degradations spike while p99 absorbs
// storage round trips, and recovery restores steady state.
func FigTimeseries(o FigOptions) (*Table, error) {
	o.applyDefaults()
	if o.Telemetry == nil {
		o.Telemetry = telemetry.NewRegistry() // standalone: the figure still works unscraped
	}
	reg := o.Telemetry

	wcfg := workload.SyntheticConfig{Keys: o.Keys, Alpha: 1.2, ReadRatio: 0.9, ValueSize: 1 << 10, Seed: o.Seed}
	c := o.synthCell(Remote, wcfg)
	c.svc.Parallelism = 1 // one lane: window edges are op counts on one timeline
	inj := fault.New(o.Seed, c.svc.Meter)
	inj.SetRule(CacheNode, fault.Rule{SlowStartCalls: 50})
	c.svc.Faults = inj

	killAt := o.Warmup + o.Ops*2/5
	reviveAt := o.Warmup + o.Ops*3/5
	sched := fault.NewSchedule([]fault.Event{
		{AtOp: killAt, Node: CacheNode, Action: fault.ActKill},
		{AtOp: reviveAt, Node: CacheNode, Action: fault.ActRevive},
	})

	// Window edges in driven-op numbers: the warm-up halves, then the
	// metered window in eighths. The registry's flows reset when the
	// metered window begins (op Warmup), so the last warm-up edge sits
	// one op before it to capture pre-reset state; DeltaSince clamps the
	// window that spans the reset.
	edges := []int{o.Warmup / 2, o.Warmup - 1}
	for i := 1; i < 8; i++ {
		edges = append(edges, o.Warmup+o.Ops*i/8)
	}
	type window struct {
		endOp int
		snap  telemetry.Snapshot
	}
	var wins []window
	next := 0
	c.run.OnOp = func(n int) {
		sched.Step(inj)
		for next < len(edges) && n >= edges[next] {
			wins = append(wins, window{endOp: n, snap: reg.Snapshot()})
			next++
		}
	}
	if _, err := o.runCell("timeseries/Remote", c); err != nil {
		return nil, err
	}
	wins = append(wins, window{endOp: o.Warmup + o.Ops, snap: reg.Snapshot()})

	t := &Table{
		ID:     "timeseries",
		Title:  "Continuous telemetry: windowed latency and hit ratio through warm-up and a cache-node kill (Remote)",
		Header: []string{"window", "end_op", "phase", "ops", "req_p50_us", "req_p99_us", "hit_ratio", "degraded", "retries"},
	}
	var prev telemetry.Snapshot
	prevOp := 0
	for i, w := range wins {
		d := w.snap.DeltaSince(prev)
		phase := "steady"
		switch {
		case w.endOp <= o.Warmup:
			phase = "warmup"
		case prevOp >= reviveAt:
			phase = "recovered"
		case w.endOp > killAt:
			phase = "killed"
		}
		var ops int64
		var p50, p99 float64
		if hs, ok := deltaHist(d, "request.latency"); ok && hs.Count > 0 {
			sum := hs.Summary()
			ops, p50, p99 = sum.Count, float64(sum.P50)/1e3, float64(sum.P99)/1e3
		}
		hits := deltaCounter(d, "meter.path", "CacheHits")
		misses := deltaCounter(d, "meter.path", "CacheMisses")
		hitRatio := 0.0
		if hits+misses > 0 {
			hitRatio = hits / (hits + misses)
		}
		t.AddRow(i+1, w.endOp, phase, ops, p50, p99, hitRatio,
			deltaCounter(d, "meter.path", "Degraded"),
			deltaCounter(d, "meter.path", "Retries"))
		prev, prevOp = w.snap, w.endOp
	}
	t.Notes = append(t.Notes,
		"each row differences retained histogram buckets between registry snapshots — the recorder's JSONL windows use the same mechanism",
		"the kill window drops hit_ratio to ~0 and spikes degradations while p99 absorbs storage round trips; slow-start recovery follows",
		fmt.Sprintf("cache node killed at op %d, revived at op %d (ops count warmup; the metered window starts at %d)", killAt, reviveAt, o.Warmup))
	return t, nil
}
