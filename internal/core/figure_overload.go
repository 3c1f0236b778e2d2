package core

import (
	"fmt"
	"time"

	"cachecost/internal/flight"
	"cachecost/internal/workload"
)

// FigOverload sweeps offered load past saturation under open-loop
// driving with a per-op SLO deadline. For each architecture it first
// probes closed-loop capacity (the rate the fixed worker pool sustains
// when the service paces it), then replays the same workload open-loop
// at fractions and multiples of that capacity. Below saturation the
// refusal counters stay at zero and cost/Mreq matches the closed-loop
// figures; past saturation ops wait in their lanes' bounded queues, the
// front door answers those that reach it past their deadline without
// work, and a full lane queue drops arrivals client-side, so the
// intended-arrival p99 stays bounded while a closed-loop harness would
// simply have slowed down and reported a healthy latency — the
// coordinated-omission blind spot this figure exists to expose. The
// flight recorder says where that tail went: each row's tail_stage is the
// stage holding most of the slowest-K requests' intended-clock latency.
func FigOverload(o FigOptions) (*Table, error) {
	o.applyDefaults()
	if o.Flight == nil {
		o.Flight = flight.New(flight.Config{})
	}
	loads := o.OfferedLoads
	if len(loads) == 0 {
		loads = []float64{0.3, 0.6, 1.5, 3.0}
	}
	proc, err := o.arrivalProcess()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "overload",
		Title: fmt.Sprintf("Open loop: cost and honest latency vs offered load (%s arrivals)", proc),
		Header: []string{"arch", "load_x", "offered_qps", "goodput_qps", "cost/Mreq_$",
			"p99_intended_ms", "p99_send_ms", "client_shed", "deadline_exp", "tail_stage"},
	}
	cfg := workload.SyntheticConfig{Keys: o.Keys, Alpha: 1.2, ReadRatio: 0.9, ValueSize: 1 << 10, Seed: o.Seed}
	for _, arch := range []Arch{Base, Remote, Linked} {
		// Probe closed-loop capacity: the sustained rate of the same
		// worker pool when the service paces the load generator.
		probe, err := o.kvCell(arch, cfg)
		if err != nil {
			return nil, err
		}
		capacity := probe.Throughput
		if capacity <= 0 {
			return nil, fmt.Errorf("core: capacity probe for %s measured no throughput", arch)
		}
		// The SLO gives each op ~10x the unloaded p99 before the server
		// declares it not worth serving; floored well above dispatch and
		// scheduler jitter so a busy CI machine cannot expire healthy
		// requests below saturation.
		slo := o.sloFor(probe, 10*time.Millisecond)
		for _, load := range loads {
			// kvCell's deployment, open loop with each op's deadline set.
			c := o.synthCell(arch, cfg)
			c.openLoop(workload.ArrivalConfig{Process: proc, Rate: load * capacity, Seed: o.Seed}, slo)
			// One recorder serves every cell: reset it so the exemplars
			// describe this (arch, load) point only.
			o.Flight.Reset()
			res, err := o.runCell(fmt.Sprintf("overload/%s/load=%.1f", arch, load), c)
			if err != nil {
				return nil, err
			}
			// Goodput: ops actually served within their deadline. Late ops
			// — expired on arrival, or served past the deadline — carried
			// no value.
			goodput := 0.0
			if sp := res.ScheduleSpan.Seconds(); sp > 0 {
				goodput = float64(int64(res.Executed)-res.Late) / sp
			}
			t.AddRow(arch.String(), load, res.OfferedQPS, goodput, res.CostPerMReq,
				float64(res.LatencyP99)/1e6, float64(res.SendLatencyP99)/1e6,
				res.ClientShed, res.Path.Deadline, tailStage(o.Flight.Exemplars().Slowest))
		}
	}
	t.Notes = append(t.Notes,
		"p99_intended_ms is measured from each op's scheduled arrival (coordinated-omission-free); p99_send_ms from the moment it left the lane queue",
		"past saturation ops queue in their lanes: the front door answers those that arrive past their deadline without work (deadline_exp) and full lane queues drop arrivals (client_shed), keeping the intended-arrival p99 bounded instead of letting the backlog diverge",
		"goodput counts executed ops that finished within their deadline",
		"cost/Mreq prices only executed requests: client-shed ops never reach the meter's request count",
		"tail_stage splits the slowest-K exemplars' intended-clock latency by stage: queue is dispatch-to-handler slip, app the unattributed handler remainder")
	return t, nil
}

// tailStage is the stage holding the largest share of the exemplars'
// summed intended-clock latency.
func tailStage(slowest []flight.Exemplar) string {
	var sum flight.Record
	for i := range slowest {
		for s, d := range slowest[i].Stages {
			sum.Stages[s] += d
		}
	}
	return sum.DominantStage().String()
}
