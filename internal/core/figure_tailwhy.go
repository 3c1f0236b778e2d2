package core

import (
	"fmt"
	"time"

	"cachecost/internal/fault"
	"cachecost/internal/flight"
	"cachecost/internal/meter"
	"cachecost/internal/workload"
)

// FigTailwhy answers "why is the tail slow?" with measured stage
// attribution. For each architecture it probes closed-loop capacity,
// then replays the workload open-loop past saturation (the overload
// figure's driving) with the flight recorder armed: every request's lane
// times its stages — queue wait, cache round trips, storage round
// trips, app remainder — and at completion the tail sampler retains the
// slowest-K plus every blown-deadline / degraded / error request as
// exemplars. The table reports where the
// slowest exemplars' intended-clock latency went, stage by stage, and
// which stage dominates — the per-request evidence behind the overload
// figure's aggregate p99.
//
// With -storagestall set, a wall-clock stall is injected on the
// app→storage connection (StorageFaultNode): the dominant stage should
// move to storage, and blown-deadline exemplars should carry the stall —
// the assertion the flight-smoke CI job makes.
func FigTailwhy(o FigOptions) (*Table, error) {
	o.applyDefaults()
	rec := o.Flight
	if rec == nil {
		rec = flight.New(flight.Config{})
	}
	load := 1.5
	if len(o.OfferedLoads) > 0 {
		load = o.OfferedLoads[0]
	}
	proc, err := o.arrivalProcess()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "tailwhy",
		Title: fmt.Sprintf("Why the tail: stage attribution of the slowest requests (%.1fx capacity, %s arrivals)", load, proc),
		Header: []string{"arch", "slowest_k", "p99_intended_ms",
			"queue_frac", "cache_frac", "storage_frac", "app_frac",
			"dominant", "deadline_ex", "degraded_ex", "error_ex"},
	}
	cfg := workload.SyntheticConfig{Keys: o.Keys, Alpha: 1.2, ReadRatio: 0.9, ValueSize: 1 << 10, Seed: o.Seed}
	for _, arch := range []Arch{Base, Remote, Linked} {
		probe, err := o.kvCell(arch, cfg)
		if err != nil {
			return nil, err
		}
		capacity := probe.Throughput
		if capacity <= 0 {
			return nil, fmt.Errorf("core: capacity probe for %s measured no throughput", arch)
		}
		// One recorder serves every cell; reset at the cell boundary so
		// exemplars describe this (arch, load) point only.
		rec.Reset()
		// The overload figure's cell with the flight recorder armed and
		// the optional storage-stall injection: a wall-clock stall on the
		// app→storage connection at the configured rate.
		c := o.synthCell(arch, cfg)
		c.openLoop(workload.ArrivalConfig{Process: proc, Rate: load * capacity, Seed: o.Seed},
			o.sloFor(probe, 10*time.Millisecond))
		c.svc.Flight = rec
		if o.StorageStall > 0 {
			rate := o.StorageStallRate
			if rate <= 0 {
				rate = 1
			}
			c.svc.Faults = fault.New(o.Seed, c.svc.Meter)
			c.svc.Faults.SetRule(StorageFaultNode, fault.Rule{StallSleep: o.StorageStall, StallRate: rate})
		}
		res, err := o.runCell(fmt.Sprintf("tailwhy/%s/load=%.1f", arch, load), c)
		if err != nil {
			return nil, err
		}
		ex := rec.Exemplars()
		var sum flight.Record // the slowest exemplars, stage by stage
		for i := range ex.Slowest {
			r := &ex.Slowest[i].Record
			for s := range r.Stages {
				sum.Stages[s] += r.Stages[s]
			}
			sum.Dur += r.Dur
		}
		frac := func(s meter.Stage) float64 {
			if sum.Dur == 0 {
				return 0
			}
			return float64(sum.Stages[s]) / float64(sum.Dur)
		}
		t.AddRow(arch.String(), len(ex.Slowest), float64(res.LatencyP99)/1e6,
			frac(meter.StageQueue), frac(meter.StageCache),
			frac(meter.StageStorage), frac(meter.StageApp),
			sum.DominantStage().String(), len(ex.Deadline), len(ex.Degraded), len(ex.Error))
	}
	t.Notes = append(t.Notes,
		"fractions split the slowest-K exemplars' intended-clock latency; queue is dispatch-to-handler slip, app the unattributed handler remainder",
		"retention decides at request completion, so a request slow only in its final stage is still captured",
		"with -storagestall the dominant stage moves to storage and blown-deadline exemplars carry the injected stall")
	return t, nil
}
