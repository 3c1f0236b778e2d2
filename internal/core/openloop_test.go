package core

import (
	"sync/atomic"
	"testing"
	"time"

	"cachecost/internal/meter"
	"cachecost/internal/workload"
)

// stallService is a Service whose ops are instant except for one
// injected stall: the op at index stallAt (counting metered ops across
// all lanes) blocks for stallFor. It is the minimal server with the
// closed-loop blind spot — every op is fast except one, but under open
// loop all the ops scheduled behind the stall still pay for it.
type stallService struct {
	stallAt  int64
	stallFor time.Duration
	n        atomic.Int64
}

func (s *stallService) do() {
	if s.n.Add(1)-1 == s.stallAt {
		time.Sleep(s.stallFor)
	}
}

func (s *stallService) Read(key string) ([]byte, error)      { s.do(); return nil, nil }
func (s *stallService) Write(key string, value []byte) error { s.do(); return nil }
func (s *stallService) Arch() Arch                           { return Base }
func (s *stallService) Worker(i int) (ServiceWorker, error)  { return s, nil }

var _ ParallelService = (*stallService)(nil)

func openLoopCfg(ops int, rate float64, par int) RunConfig {
	return RunConfig{
		Warmup:      10,
		Ops:         ops,
		Parallelism: par,
		Prices:      meter.GCP,
		Arrival:     &workload.ArrivalConfig{Process: workload.ArrivalPoisson, Rate: rate, Seed: 1},
	}
}

func synthGen(t *testing.T, ops int) workload.Generator {
	t.Helper()
	return workload.NewSynthetic(workload.SyntheticConfig{Keys: 64, ReadRatio: 0.9, ValueSize: 64, Seed: 1})
}

// runStallCell drives a stallService open-loop at P1 (one lane, so every
// op scheduled after the stall queues behind it) and returns the result.
func runStallCell(t *testing.T) *RunResult {
	t.Helper()
	const ops = 300
	svc := &stallService{stallAt: 10 + 50, stallFor: 50 * time.Millisecond} // op 50 of the metered window
	m := meter.NewMeter()
	gen := synthGen(t, ops)
	res, err := RunExperimentCfg(svc, m, gen, openLoopCfg(ops, 1000, 1))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCoordinatedOmissionRegression is the harness this PR exists to
// pin: a 50ms stall in an otherwise-instant server must show up in the
// intended-arrival percentiles and must NOT show up in the send-time
// percentiles. A closed-loop (or send-clock) recording sees one slow op
// and ~299 fast ones — p99 healthy; the honest clock sees the stall
// charged to every op that was scheduled behind it.
func TestCoordinatedOmissionRegression(t *testing.T) {
	res := runStallCell(t)
	if res.Executed != res.Offered || res.ClientShed != 0 {
		t.Fatalf("lossy run (offered %d, executed %d, shed %d) — lane depth too small for the stall",
			res.Offered, res.Executed, res.ClientShed)
	}
	// stallInP99 is the clock-flippable assertion: does the given p99
	// carry the injected 50ms stall? At 1000 qps, ~50 ops arrive during
	// the stall — well over 1% of 300 — so the honest clock must trip
	// it; the send-time clock sees at most the one stalled op at rank
	// ~299.7, excluded from the nearest-rank p99.
	stallInP99 := func(p99 time.Duration) bool { return p99 >= 10*time.Millisecond }
	if !stallInP99(res.LatencyP99) {
		t.Fatalf("intended-arrival p99 = %v does not carry the 50ms stall", res.LatencyP99)
	}
	// The flip: record latency at send time instead of intended arrival
	// and the same assertion on the same run must fail — this is exactly
	// the regression (the blind spot) that the honest clock removes.
	if stallInP99(res.SendLatencyP99) {
		t.Fatalf("send-time p99 = %v also carries the stall; flipping the clock should hide it", res.SendLatencyP99)
	}
	// The acceptance criterion, stated directly: the intended-arrival
	// p99 is strictly worse than the send-time p99.
	if res.LatencyP99 <= res.SendLatencyP99 {
		t.Fatalf("intended-arrival p99 (%v) not strictly worse than send-time p99 (%v)",
			res.LatencyP99, res.SendLatencyP99)
	}
}

// TestOpenLoopDeterminism pins the replay contract end to end at P1 and
// P4: two runs from the same seed see the identical arrival timeline
// and produce identical op counts.
func TestOpenLoopDeterminism(t *testing.T) {
	for _, par := range []int{1, 4} {
		for _, proc := range []workload.ArrivalProcess{workload.ArrivalPoisson, workload.ArrivalBursty, workload.ArrivalDiurnal} {
			t.Run(proc.String(), func(t *testing.T) {
				const ops = 500
				run := func() *RunResult {
					svc := &stallService{stallAt: -1}
					m := meter.NewMeter()
					cfg := openLoopCfg(ops, 20000, par)
					cfg.Arrival.Process = proc
					res, err := RunExperimentCfg(svc, m, synthGen(t, ops), cfg)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				a, b := run(), run()
				if a.Arrival != b.Arrival {
					t.Fatalf("schedule names differ: %q vs %q", a.Arrival, b.Arrival)
				}
				if a.ScheduleSpan != b.ScheduleSpan {
					t.Fatalf("schedule spans differ: %v vs %v — timeline not deterministic", a.ScheduleSpan, b.ScheduleSpan)
				}
				if a.Offered != b.Offered || a.Executed != b.Executed || a.Ops != b.Ops {
					t.Fatalf("op counts differ: %d/%d/%d vs %d/%d/%d",
						a.Offered, a.Executed, a.Ops, b.Offered, b.Executed, b.Ops)
				}
				if a.Offered != ops {
					t.Fatalf("offered %d, want %d", a.Offered, ops)
				}
				// An instant server keeps up: nothing sheds, so executed
				// must equal offered on both runs.
				if a.Executed != ops || a.ClientShed != 0 {
					t.Fatalf("instant server shed work: executed %d, client shed %d", a.Executed, a.ClientShed)
				}
			})
		}
	}
}

// TestOpenLoopTimelineMatchesSchedule pins that the driver replays the
// schedule it was given: the byte-encoded timeline of two BuildSchedule
// calls with the run's config is identical, and the run's reported
// offered rate is the schedule's, not a wall-clock measurement.
func TestOpenLoopTimelineMatchesSchedule(t *testing.T) {
	const ops = 400
	cfg := openLoopCfg(ops, 5000, 1)
	sched, err := workload.BuildSchedule(*cfg.Arrival, ops)
	if err != nil {
		t.Fatal(err)
	}
	svc := &stallService{stallAt: -1}
	res, err := RunExperimentCfg(svc, meter.NewMeter(), synthGen(t, ops), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScheduleSpan != sched.Span() {
		t.Fatalf("run span %v != schedule span %v", res.ScheduleSpan, sched.Span())
	}
	if got, want := res.OfferedQPS, float64(sched.N())/sched.Span().Seconds(); got != want {
		t.Fatalf("offered qps %.2f != schedule's %.2f", got, want)
	}
	if res.Arrival != sched.Name() {
		t.Fatalf("arrival name %q != schedule's %q", res.Arrival, sched.Name())
	}
}

// TestOpenLoopThroughputUsesScheduleSpan pins the satellite fix: under
// open loop, throughput must be computed from the schedule span, not the
// slowest lane's wall clock. With a big terminal stall the wall clock is
// much longer than the span; the old wall-clock formula would understate
// throughput (and overstate nothing at all about offered load).
func TestOpenLoopThroughputUsesScheduleSpan(t *testing.T) {
	const ops = 200
	// Stall on the last op: the wall stretches ~50ms past a ~20ms span.
	svc := &stallService{stallAt: 10 + ops - 1, stallFor: 50 * time.Millisecond}
	cfg := openLoopCfg(ops, 10000, 1)
	res, err := RunExperimentCfg(svc, meter.NewMeter(), synthGen(t, ops), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantTput := float64(res.Executed) / res.ScheduleSpan.Seconds()
	if res.Throughput != wantTput {
		t.Fatalf("throughput %.2f, want executed/span = %.2f", res.Throughput, wantTput)
	}
	wallTput := float64(res.Executed) / res.Wall.Seconds()
	if res.Throughput <= wallTput {
		t.Fatalf("throughput %.2f not above wall-clock rate %.2f — stall did not stretch the wall? (span %v, wall %v)",
			res.Throughput, wallTput, res.ScheduleSpan, res.Wall)
	}
}

// TestOpenLoopClientShed pins the bounded-lane contract: with a tiny
// lane and a server stalled for most of the run, excess arrivals are
// dropped at their intended instant and conserved in ClientShed.
func TestOpenLoopClientShed(t *testing.T) {
	const ops = 300
	svc := &stallService{stallAt: 10, stallFor: 200 * time.Millisecond} // first metered op stalls
	cfg := openLoopCfg(ops, 5000, 1)
	cfg.LaneDepth = 4
	res, err := RunExperimentCfg(svc, meter.NewMeter(), synthGen(t, ops), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ClientShed == 0 {
		t.Fatal("depth-4 lane with a 200ms stall at 5000 qps shed nothing")
	}
	if got := int64(res.Executed) + res.ClientShed; got != int64(res.Offered) {
		t.Fatalf("conservation violated: executed %d + shed %d != offered %d",
			res.Executed, res.ClientShed, res.Offered)
	}
}

// TestOpenLoopRejectsBatching pins the config validation.
func TestOpenLoopRejectsBatching(t *testing.T) {
	cfg := openLoopCfg(10, 1000, 1)
	cfg.BatchSize = 4
	if _, err := RunExperimentCfg(&stallService{stallAt: -1}, meter.NewMeter(), synthGen(t, 10), cfg); err == nil {
		t.Fatal("open loop with BatchSize > 1 did not error")
	}
}
