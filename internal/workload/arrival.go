package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Arrival schedules turn the driver from closed-loop (N workers, the
// next op waits for the last) into open-loop: each operation has an
// *intended* arrival instant fixed before the run starts, the way
// traffic from millions of independent users arrives regardless of how
// the service is doing. Latency measured against the intended arrival —
// not the moment the op was finally sent — is what makes the recording
// coordinated-omission-free: a stalled server is charged for every
// request that queued behind the stall, not just the one it was slow on.
//
// Schedules are built entirely up front from a seeded generator, so a
// given (process, rate, seed, n) always yields a byte-identical arrival
// timeline — replayable across runs, architectures and parallelism.

// ArrivalProcess selects the shape of the arrival stream.
type ArrivalProcess int

// The arrival processes.
const (
	// ArrivalPoisson is a homogeneous Poisson process: i.i.d.
	// exponential inter-arrivals at the configured rate — independent
	// users with no correlation.
	ArrivalPoisson ArrivalProcess = iota
	// ArrivalBursty is a two-state modulated Poisson process: the rate
	// alternates between a burst level and a quiet level on a fixed
	// cycle, keeping the configured mean rate. Models synchronized
	// client behaviour (retry storms, cron fan-outs).
	ArrivalBursty
	// ArrivalDiurnal modulates the Poisson rate sinusoidally over a
	// period — a day compressed to experiment scale.
	ArrivalDiurnal
)

// String implements fmt.Stringer.
func (p ArrivalProcess) String() string {
	switch p {
	case ArrivalPoisson:
		return "poisson"
	case ArrivalBursty:
		return "bursty"
	case ArrivalDiurnal:
		return "diurnal"
	default:
		return fmt.Sprintf("ArrivalProcess(%d)", int(p))
	}
}

// ParseArrivalProcess maps a CLI name to a process.
func ParseArrivalProcess(s string) (ArrivalProcess, error) {
	switch s {
	case "poisson":
		return ArrivalPoisson, nil
	case "bursty":
		return ArrivalBursty, nil
	case "diurnal":
		return ArrivalDiurnal, nil
	default:
		return 0, fmt.Errorf("workload: unknown arrival process %q (have poisson, bursty, diurnal)", s)
	}
}

// ArrivalConfig parameterizes BuildSchedule.
type ArrivalConfig struct {
	// Process selects the arrival shape. Default ArrivalPoisson.
	Process ArrivalProcess
	// Rate is the mean offered load in operations per second. Required.
	Rate float64
	// Seed makes the timeline deterministic. Default 1.
	Seed int64
}

// The modulated processes' shapes. The rates are typed so rateAt's
// arithmetic rounds as it did when they were config fields.
const (
	// burstFactor is ArrivalBursty's burst-state rate as a multiple of
	// Rate.
	burstFactor float64 = 8
	// burstDuty is the fraction of each cycle ArrivalBursty spends in the
	// burst state.
	burstDuty float64 = 0.1
	// burstPeriod is ArrivalBursty's on/off cycle length.
	burstPeriod = 200 * time.Millisecond
	// diurnalPeriod is one compressed "day" of ArrivalDiurnal.
	diurnalPeriod = 2 * time.Second
	// diurnalAmplitude is ArrivalDiurnal's peak-to-mean rate swing.
	diurnalAmplitude float64 = 0.8
)

// Schedule is a fixed arrival timeline: the intended start instant of
// each operation, as an offset from the run's origin. Offsets are
// non-decreasing. A Schedule is immutable after construction and safe
// to replay concurrently and across runs.
type Schedule struct {
	name    string
	rate    float64
	offsets []time.Duration
}

// BuildSchedule materializes n intended arrivals for cfg. The timeline
// is a pure function of (Process, Rate, Seed, n).
func BuildSchedule(cfg ArrivalConfig, n int) (*Schedule, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("workload: arrival rate must be positive, got %g", cfg.Rate)
	}
	if n <= 0 {
		return nil, fmt.Errorf("workload: schedule needs at least one arrival, got %d", n)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	offsets := make([]time.Duration, n)
	t := 0.0 // seconds
	for i := 0; i < n; i++ {
		r := cfg.rateAt(t)
		t += rng.ExpFloat64() / r
		offsets[i] = time.Duration(t * float64(time.Second))
	}
	return &Schedule{
		name:    fmt.Sprintf("%s@%.0fqps", cfg.Process, cfg.Rate),
		rate:    cfg.Rate,
		offsets: offsets,
	}, nil
}

// rateAt evaluates the instantaneous rate (ops/sec) at t seconds. The
// burst-state quiet rate is chosen so the cycle mean equals Rate, and
// both modulated processes floor the rate at 5% of the mean so the
// timeline always advances.
func (c *ArrivalConfig) rateAt(t float64) float64 {
	const floorFrac = 0.05
	switch c.Process {
	case ArrivalBursty:
		period := burstPeriod.Seconds()
		burst := c.Rate * burstFactor
		quiet := c.Rate * (1 - burstDuty*burstFactor) / (1 - burstDuty)
		if quiet < c.Rate*floorFrac {
			quiet = c.Rate * floorFrac
		}
		if math.Mod(t, period) < burstDuty*period {
			return burst
		}
		return quiet
	case ArrivalDiurnal:
		r := c.Rate * (1 + diurnalAmplitude*math.Sin(2*math.Pi*t/diurnalPeriod.Seconds()))
		if r < c.Rate*floorFrac {
			r = c.Rate * floorFrac
		}
		return r
	default: // ArrivalPoisson
		return c.Rate
	}
}

// N returns the number of arrivals.
func (s *Schedule) N() int { return len(s.offsets) }

// Name identifies the schedule in reports ("poisson@2000qps").
func (s *Schedule) Name() string { return s.name }

// Offset returns the intended arrival offset of op i.
func (s *Schedule) Offset(i int) time.Duration { return s.offsets[i] }

// Span is the timeline's length: the offset of the last arrival. The
// schedule-defined offered rate is N()/Span() — figures must use it,
// never the measured wall clock, to label offered load (a struggling
// server stretches the wall, which would misreport the load it was
// actually offered).
func (s *Schedule) Span() time.Duration {
	if len(s.offsets) == 0 {
		return 0
	}
	return s.offsets[len(s.offsets)-1]
}
