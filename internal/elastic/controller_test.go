package elastic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cachecost/internal/linkedcache"
	"cachecost/internal/meter"
	"cachecost/internal/telemetry"
)

type fakeSize struct{ capacity int64 }

func (f *fakeSize) Resize(b int64) { f.capacity = b }
func (f *fakeSize) Capacity() int64 {
	return f.capacity
}
func (f *fakeSize) UsedBytes() int64 { return f.capacity / 2 }

// expCurve is the analytic test workload: mr(s) = exp(-s/a), whose cost
// minimum OptimalBytes gives in closed form.
type expCurve struct{ a float64 }

func (c expCurve) MissRatio(s int64) float64 { return math.Exp(-float64(s) / c.a) }
func (c expCurve) Weight() float64           { return 1e9 }

// run ticks the controller n times and returns the trail of targets.
func run(c *Controller, n int) []int64 {
	trail := make([]int64, n)
	for i := range trail {
		trail[i] = c.Tick().TargetBytes
	}
	return trail
}

// The size loop must settle at the analytic optimum — within one
// multiplicative step, from both directions — and then hold: hysteresis
// must suppress oscillation around the (locally flat) minimum.
func TestSizeConvergesToAnalyticOptimum(t *testing.T) {
	const (
		a       = float64(64 << 20) // curve scale: 64 MiB
		qps     = 1000.0
		missUSD = 1e-6
	)
	prices := meter.GCP.WithMemoryMultiplier(40)
	want := OptimalBytes(a, qps, missUSD, prices.MemGBMonth)
	if want < float64(32<<20) || want > float64(2<<30) {
		t.Fatalf("test setup: optimum %.0f outside the start bracket", want)
	}

	for _, start := range []int64{32 << 20, 2 << 30} {
		tgt := &fakeSize{capacity: start}
		c := New(Config{
			Target:      tgt,
			Prices:      prices,
			MissCostUSD: missUSD,
			CurveFn:     func() Curve { return expCurve{a: a} },
			DemandQPS:   func() float64 { return qps },
		})
		trail := run(c, 200)

		got := float64(trail[len(trail)-1])
		if r := got / want; r < 1-2*stepFrac || r > 1+2*stepFrac {
			t.Errorf("start=%d: settled at %.0f, want within 2 steps of %.0f (ratio %.2f)",
				start, got, want, r)
		}
		if tgt.Capacity() != trail[len(trail)-1] {
			t.Errorf("start=%d: target capacity %d diverged from decision %d",
				start, tgt.Capacity(), trail[len(trail)-1])
		}
		// Settled means settled: the last 50 ticks may not oscillate.
		settled := trail[len(trail)-50:]
		for _, v := range settled {
			if v != settled[0] {
				t.Errorf("start=%d: oscillation after settling: %v", start, uniq(settled))
				break
			}
		}
	}
}

// A perturbation smaller than the hysteresis band must not move the
// knob at all. At the optimum no step pays even without the band; at
// 1.10 × the optimum the −15 % step does, by about $0.33/mo against a
// band of about $0.69/mo, so there only the band holds the knob.
func TestHysteresisHoldsFlatMinimum(t *testing.T) {
	const a, qps, missUSD = float64(64 << 20), 1000.0, 1e-6
	prices := meter.GCP.WithMemoryMultiplier(40)
	opt := int64(OptimalBytes(a, qps, missUSD, prices.MemGBMonth))

	for _, start := range []int64{opt, opt * 11 / 10} {
		wobble := 1.0
		tgt := &fakeSize{capacity: start}
		c := New(Config{
			Target:      tgt,
			Prices:      prices,
			MissCostUSD: missUSD,
			CurveFn:     func() Curve { return expCurve{a: a} },
			DemandQPS:   func() float64 { return qps * wobble },
		})
		for i := 0; i < 100; i++ {
			wobble = 1 + 0.02*math.Sin(float64(i)) // ±2% demand noise
			if d := c.Tick(); d.Resized {
				t.Fatalf("tick %d: resized to %d under sub-hysteresis noise (start %d, optimum %d)",
					i, d.TargetBytes, start, opt)
			}
		}
	}
}

// Too few samples must hold everything — no resize off statistical
// noise right after startup or a telemetry reset.
func TestInsufficientSamplesHolds(t *testing.T) {
	tgt := &fakeSize{capacity: 256 << 20}
	c := New(Config{
		Target:      tgt,
		Prices:      meter.GCP,
		MissCostUSD: 1e-6,
	})
	for i := 0; i < 10; i++ {
		c.Observe(fmt.Sprintf("k%d", i), 100) // far below MinSamples
	}
	if d := c.Tick(); d.Ticked || d.Resized {
		t.Fatalf("tick on %d samples must hold, got %+v", 10, d)
	}
	if tgt.Capacity() != 256<<20 {
		t.Fatalf("capacity moved to %d on insufficient samples", tgt.Capacity())
	}
}

// End to end against a real linked cache: after every tick the meter's
// priced memory and the elastic.target_bytes gauge equal the
// controller's live target — the bill follows the knob, step for step.
func TestControllerKeepsMeterAndGaugeInSync(t *testing.T) {
	const replicas = 3
	m := meter.NewMeter()
	reg := telemetry.NewRegistry()
	lc := linkedcache.New[string](linkedcache.Config{
		CapacityBytes: 512 << 20,
		Meter:         m,
		Name:          "app.cache",
	}, func(k, v string) int64 { return int64(len(k) + len(v)) })
	lc.SetBilledReplicas(replicas)

	ctrl := New(Config{
		Name:        "app.cache",
		Target:      lc,
		Prices:      meter.GCP.WithMemoryMultiplier(40),
		Replicas:    replicas,
		MissCostUSD: 1e-6,
		Registry:    reg,
	})

	rng := rand.New(rand.NewSource(7))
	z := rand.NewZipf(rng, 1.2, 1, 5000)
	gauge := reg.Gauge("elastic.target_bytes", telemetry.L("tier", "app.cache"))
	comp := m.Component("app.cache")
	resized := false
	for tick := 0; tick < 50; tick++ {
		for i := 0; i < 500; i++ {
			ctrl.Observe(fmt.Sprintf("key-%d", z.Uint64()), 4096)
		}
		d := ctrl.Tick()
		if d.Resized {
			resized = true
		}
		if lc.Capacity() != d.TargetBytes {
			t.Fatalf("tick %d: cache capacity %d != decision target %d", tick, lc.Capacity(), d.TargetBytes)
		}
		if got, want := comp.MemBytes(), d.TargetBytes*replicas; got != want {
			t.Fatalf("tick %d: metered memory %d != target %d × %d replicas", tick, got, d.TargetBytes, replicas)
		}
		if gauge.Value() != d.TargetBytes {
			t.Fatalf("tick %d: elastic.target_bytes gauge %d != target %d", tick, gauge.Value(), d.TargetBytes)
		}
	}
	if !resized {
		t.Fatal("a 512 MiB budget over a ~20 MB working set must shrink at least once")
	}
}

func uniq(vs []int64) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
