package core

import (
	"testing"
	"time"

	"cachecost/internal/fault"
	"cachecost/internal/meter"
	"cachecost/internal/workload"
)

// TestChaosOverloadDegradesWithoutErrors kills the cache tier in the
// middle of an overloaded open-loop window and pins the combined
// failure-mode contract: every request is still answered (no
// client-visible errors), reads degrade to storage instead of failing,
// the client-shed/deadline counters account for the refused excess,
// and the meter's conservation invariant (attributed busy never exceeds
// the threads' wall budget) survives the whole episode.
func TestChaosOverloadDegradesWithoutErrors(t *testing.T) {
	const (
		par    = 2
		warmup = 200
		ops    = 2000
	)
	m := meter.NewMeter()
	gen := smallGen(13)
	inj := fault.New(13, m)

	cfg := smallCfg(Remote, m)
	cfg.Parallelism = par
	cfg.Faults = inj
	svc, err := BuildKVService(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}

	// Probe the closed-loop rate so the open-loop sweep is reliably past
	// saturation on any machine (CI boxes vary by an order of magnitude).
	probe, err := RunExperimentCfg(svc, m, gen, RunConfig{
		Warmup: warmup, Ops: 500, Parallelism: par, Prices: meter.GCP,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Kill the cache for the middle fifth of the metered window, revive
	// after — chaos striking exactly while the server is drowning.
	sched := fault.NewSchedule([]fault.Event{
		{AtOp: warmup + ops*2/5, Node: CacheNode, Action: fault.ActKill},
		{AtOp: warmup + ops*3/5, Node: CacheNode, Action: fault.ActRevive},
	})

	m2 := meter.NewMeter()
	inj2 := fault.New(13, m2)
	cfg2 := smallCfg(Remote, m2)
	cfg2.Parallelism = par
	cfg2.Faults = inj2
	svc2, err := BuildKVService(cfg2, gen)
	if err != nil {
		t.Fatal(err)
	}

	// Overload shape chosen for determinism: 3x the probed capacity with
	// shallow lanes makes client-side shedding certain, while the long
	// SLO keeps the backlogged lanes executing (not expiring) straight
	// through the kill window — so the dead cache is reliably touched.
	t0 := time.Now()
	res, err := RunExperimentCfg(svc2, m2, gen, RunConfig{
		Warmup:      warmup,
		Ops:         ops,
		Parallelism: par,
		Prices:      meter.GCP,
		OnOp:        func(int) { sched.Step(inj2) },
		Arrival: &workload.ArrivalConfig{
			Process: workload.ArrivalPoisson,
			Rate:    3 * probe.Throughput, // firmly past saturation
			Seed:    13,
		},
		SLO:       500 * time.Millisecond,
		LaneDepth: 8,
	})
	if err != nil {
		t.Fatalf("overloaded run with a dead cache returned a client-visible error: %v", err)
	}
	wall := time.Since(t0)

	// The kill must have been felt: served reads crossed the dead cache
	// and degraded to storage loads.
	if res.Path.Degraded == 0 {
		t.Fatal("cache kill during the metered window produced no degradations")
	}
	// Overload must have been felt: part of the offered excess was
	// refused, by a full lane queue or by expiry on arrival — the point
	// is that refusals, not errors, absorbed it.
	refused := res.ClientShed + res.Path.Deadline
	if refused == 0 {
		t.Fatalf("3x-capacity offered load was fully served: overload never happened (offered %.0f qps)",
			res.OfferedQPS)
	}
	// Conservation: every offered op is served or refused, never lost.
	if got := int64(res.Executed) + res.ClientShed; got != int64(res.Offered) {
		t.Fatalf("op conservation violated: executed %d + client shed %d != offered %d",
			res.Executed, res.ClientShed, res.Offered)
	}
	// Metering conservation (PR 2/5 invariant, adapted to a concurrent
	// driver): busy time attributed across all components cannot exceed
	// the wall budget of the threads that could have produced it — the
	// par lane threads plus the dispatcher — even while shedding and
	// degrading at once. The wall here brackets the whole RunExperimentCfg
	// call, which only widens the budget (never a false pass for busy).
	busy := totalBusy(m2)
	budget := wall * time.Duration(par+1) * 105 / 100
	if busy > budget {
		t.Fatalf("attributed busy %v exceeds the %d-thread wall budget %v: double counting", busy, par+1, budget)
	}
}
