package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"cachecost/internal/fault"
	"cachecost/internal/flight"
	"cachecost/internal/meter"
	"cachecost/internal/trace"
	"cachecost/internal/workload"
)

// allExemplars flattens every retained class of a snapshot.
func allExemplars(ex flight.ExemplarSet) []flight.Exemplar {
	var out []flight.Exemplar
	out = append(out, ex.Slowest...)
	out = append(out, ex.Deadline...)
	out = append(out, ex.Degraded...)
	out = append(out, ex.Error...)
	return out
}

// TestFlightConservationUnderLoad drives an overloaded open-loop window
// with the flight recorder armed, at P1 and P4, and pins the stage
// attribution's conservation contract: for every captured exemplar the
// stage durations (StageRaft excluded — it is inside StageStorage)
// account for at least 90% of the request's intended-clock latency. The
// backlog 3x offered load builds in the lane queues must also surface
// blown-deadline exemplars.
func TestFlightConservationUnderLoad(t *testing.T) {
	const warmup, ops = 200, 2000
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("P%d", par), func(t *testing.T) {
			// Probe closed-loop capacity so the open-loop window is
			// reliably past saturation on any machine.
			m := meter.NewMeter()
			gen := smallGen(11)
			cfg := smallCfg(Remote, m)
			cfg.Parallelism = par
			svc, err := BuildKVService(cfg, gen)
			if err != nil {
				t.Fatal(err)
			}
			probe, err := RunExperimentCfg(svc, m, gen, RunConfig{
				Warmup: warmup, Ops: 500, Parallelism: par, Prices: meter.GCP,
			})
			if err != nil {
				t.Fatal(err)
			}

			rec := flight.New(flight.Config{SlowestK: 32})
			m2 := meter.NewMeter()
			cfg2 := smallCfg(Remote, m2)
			cfg2.Parallelism = par
			cfg2.Flight = rec
			svc2, err := BuildKVService(cfg2, gen)
			if err != nil {
				t.Fatal(err)
			}
			rec.Reset()
			res, err := RunExperimentCfg(svc2, m2, gen, RunConfig{
				Warmup: warmup, Ops: ops, Parallelism: par, Prices: meter.GCP,
				SLO: 20 * time.Millisecond,
				Arrival: &workload.ArrivalConfig{
					Process: workload.ArrivalPoisson,
					Rate:    3 * probe.Throughput,
					Seed:    11,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			// An op expired on arrival finished past its deadline too.
			if res.Path.Deadline == 0 || res.Late < res.Path.Deadline {
				t.Errorf("Late = %d, Path.Deadline = %d: want expiries, each of them late", res.Late, res.Path.Deadline)
			}

			ex := rec.Exemplars()
			if len(ex.Slowest) == 0 {
				t.Fatal("overloaded window retained no slowest exemplars")
			}
			for _, e := range allExemplars(ex) {
				if e.Dur <= 0 {
					t.Fatalf("exemplar %s has non-positive Dur %d", e.Method, e.Dur)
				}
				ratio := float64(sumStages(&e.Record)) / float64(e.Dur)
				if ratio < 0.9 || ratio > 1.1 {
					t.Errorf("conservation violated: %s outcome=%s stages sum to %.0f%% of Dur=%v (stages %v)",
						e.Method, e.Outcome(), 100*ratio, time.Duration(e.Dur), e.Stages)
				}
			}
			if len(ex.Deadline) == 0 {
				t.Error("3x overload surfaced no blown-deadline exemplars")
			}
		})
	}
}

// populate writes every key of the small synthetic population so
// subsequent reads never miss storage entirely.
func populate(t *testing.T, svc *KVService) {
	t.Helper()
	for i := 0; i < 300; i++ {
		key := workload.KeyName(i)
		if err := svc.Write(key, ValueFor(key, 2048)); err != nil {
			t.Fatal(err)
		}
	}
}

// dominantShare counts how many exemplars name stage s dominant.
func dominantShare(exs []flight.Exemplar, s meter.Stage) (dominant, total int) {
	for i := range exs {
		if exs[i].DominantStage() == s {
			dominant++
		}
	}
	return dominant, len(exs)
}

// TestFlightStorageStallDominant injects a pure wall-clock stall on the
// app→storage connection and pins the acceptance contract: the blown
// deadlines this causes are captured as deadline exemplars whose
// dominant stage is storage — the injected fault is visible in the
// breakdown, not just in the aggregate tail.
func TestFlightStorageStallDominant(t *testing.T) {
	rec := flight.New(flight.Config{SlowestK: 16})
	m := meter.NewMeter()
	gen := smallGen(5)
	inj := fault.New(5, m)
	cfg := smallCfg(Base, m) // no cache tier: every read round-trips storage
	cfg.Faults = inj
	cfg.Flight = rec
	svc, err := BuildKVService(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, svc)

	rec.Reset()
	inj.SetRule(storageFaultNode, fault.Rule{StallSleep: 3 * time.Millisecond, StallRate: 1})
	for i := 0; i < 40; i++ {
		op := gen.Next()
		// A 1ms budget the 3ms storage stall always blows; the deadline
		// is only knowable at completion.
		if _, err := svc.ReadDeadline(op.Key, time.Now().Add(time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}

	ex := rec.Exemplars()
	if len(ex.Deadline) == 0 {
		t.Fatal("stalled storage blew no deadlines into the deadline exemplar class")
	}
	if dom, total := dominantShare(ex.Deadline, meter.StageStorage); dom*10 < total*9 {
		t.Errorf("storage dominant in %d/%d deadline exemplars, want >=90%%", dom, total)
	}
	if dom, total := dominantShare(ex.Slowest, meter.StageStorage); dom*10 < total*9 {
		t.Errorf("storage dominant in %d/%d slowest exemplars, want >=90%%", dom, total)
	}
}

// TestFlightCacheStallDominant: the same contract for the cache tier —
// a stalled remote cache makes StageCache dominant in the slowest
// exemplars of a Remote-architecture service.
func TestFlightCacheStallDominant(t *testing.T) {
	rec := flight.New(flight.Config{SlowestK: 16})
	m := meter.NewMeter()
	gen := smallGen(6)
	inj := fault.New(6, m)
	cfg := smallCfg(Remote, m)
	cfg.Faults = inj
	cfg.Flight = rec
	svc, err := BuildKVService(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, svc)
	// Warm the cache tier so reads are mostly hits (one stalled get)
	// rather than misses (stalled get + storage + stalled set) — either
	// way cache wall time dominates, but warmth keeps the test fast.
	for i := 0; i < 200; i++ {
		op := gen.Next()
		if op.Kind == workload.Read {
			if _, err := svc.Read(op.Key); err != nil {
				t.Fatal(err)
			}
		}
	}

	rec.Reset()
	inj.SetRule(CacheNode, fault.Rule{StallSleep: 3 * time.Millisecond, StallRate: 1})
	for i := 0; i < 40; i++ {
		op := gen.Next()
		if _, err := svc.Read(op.Key); err != nil {
			t.Fatal(err)
		}
	}

	ex := rec.Exemplars()
	if len(ex.Slowest) == 0 {
		t.Fatal("stalled cache retained no slowest exemplars")
	}
	if dom, total := dominantShare(ex.Slowest, meter.StageCache); dom*10 < total*9 {
		t.Errorf("cache dominant in %d/%d slowest exemplars, want >=90%%", dom, total)
	}
}

// TestFlightDegradedFlagIsPerRequest: a demotion marks the lane of the
// request whose cache call failed, so with concurrent lanes — scalar and
// batched — every retained exemplar carries exactly its own request's
// degraded flag: set if and only if its own span tree shows a cache call
// that gave up (gaveUp). Run it under -race.
func TestFlightDegradedFlagIsPerRequest(t *testing.T) {
	for _, batch := range []int{1, 4} {
		t.Run(fmt.Sprintf("B%d", batch), func(t *testing.T) {
			rec := flight.New(flight.Config{OutcomeCap: 256})
			m := meter.NewMeter()
			gen := smallGen(8)
			inj := fault.New(8, m)
			inj.SetRule(CacheNode, fault.Rule{ErrorRate: 0.3})
			cfg := smallCfg(Remote, m)
			cfg.Parallelism, cfg.Faults, cfg.Flight = 4, inj, rec
			// Every request sampled, so every exemplar carries its spans.
			cfg.Tracer = trace.New(trace.Config{Capacity: 1})
			svc, err := BuildKVService(cfg, gen)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RunExperimentCfg(svc, m, gen, RunConfig{
				Warmup: 100, Ops: 400, Parallelism: 4, BatchSize: batch, Prices: meter.GCP,
			}); err != nil {
				t.Fatal(err)
			}
			degraded := 0
			for _, e := range allExemplars(rec.Exemplars()) {
				gave := gaveUp(e.Spans)
				if flagged := e.Flags&meter.FlagDegraded != 0; flagged != gave {
					t.Errorf("%s exemplar: degraded flag %v, its own cache call gave up %v", e.Method, flagged, gave)
				}
				if gave {
					degraded++
				}
			}
			if degraded == 0 {
				t.Fatal("no degraded exemplars at a 30% cache error rate")
			}
		})
	}
}

// gaveUp reports whether a request's spans show a cache call that gave
// up: an injected cache error the retry layer did not absorb. A retry is
// issued at once, so an error's next span (in start order, non-error
// fault decisions skipped) is the retried attempt: another injected error
// or, once one gets through, its cache round trip. A call that gave up is
// followed by anything else — the storage load a demoted read falls
// through to, or the end of the request.
func gaveUp(spans []trace.Span) bool {
	spans = slices.Clone(spans)
	slices.SortStableFunc(spans, func(a, b trace.Span) int { return cmp.Compare(a.Start, b.Start) })
	injected := func(sp trace.Span) (fault, failed bool) {
		v, _ := sp.Annotation("fault.outcome")
		return sp.Component == "fault", sp.Component == "fault" && v == "error"
	}
	for i, sp := range spans {
		if _, failed := injected(sp); !failed {
			continue
		}
		next := i + 1
		for next < len(spans) {
			if fault, failed := injected(spans[next]); !fault || failed {
				break
			}
			next++
		}
		if next == len(spans) {
			return true
		}
		_, retriedAgain := injected(spans[next])
		roundTrip := spans[next].Component == "rpc" && strings.HasPrefix(spans[next].Op, "cache.")
		if !retriedAgain && !roundTrip {
			return true
		}
	}
	return false
}

// sumStages is the conservation sum: every stage except StageRaft, whose
// time is contained in StageStorage.
func sumStages(r *flight.Record) int64 {
	var sum int64
	for s := meter.Stage(0); s < meter.NumStages; s++ {
		if s != meter.StageRaft {
			sum += r.Stages[s]
		}
	}
	return sum
}
