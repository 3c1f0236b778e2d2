// Package elastic closes the provisioning loop the paper leaves open:
// §4 prices caches at a fixed size chosen offline, but real workloads
// breathe (diurnal swings) and lurch (flash crowds), so any fixed size
// is wrong most of the day. The controller here watches the live access
// stream through a windowed miss-ratio curve and continuously retunes the
// cache's byte budget against the same cost model the repository's meter
// bills — memory rent vs miss-driven storage cost — stepping toward the
// current cost minimum with hysteresis, so the priced memory follows
// demand instead of the worst case.
package elastic

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"cachecost/internal/cache"
	"cachecost/internal/meter"
	"cachecost/internal/telemetry"
)

// secondsPerMonth matches meter's normalization (30-day month), so a
// cost the controller estimates is commensurable with the bill the
// report prints.
const secondsPerMonth = 30 * 24 * 3600

// SizeTarget is a resizable cache tier. linkedcache.Cache and
// remotecache.Server implement it.
type SizeTarget interface {
	Resize(bytes int64)
	Capacity() int64
	UsedBytes() int64
}

// Curve is the slice of the miss-ratio curve the controller needs.
// *cache.WeightedMRC implements it.
type Curve interface {
	// MissRatio returns the fraction of accesses that would miss in an
	// LRU of the given byte capacity.
	MissRatio(cacheBytes int64) float64
	// Weight returns the total sample mass behind the curve; ticks
	// below minSamples are skipped as statistically empty.
	Weight() float64
}

// Config parameterizes a controller.
type Config struct {
	// Name labels telemetry and the /statusz section. Default "cache".
	Name string
	// Target is the tier being resized. Required.
	Target SizeTarget

	// Prices converts bytes to monthly rent.
	Prices meter.PriceBook
	// Replicas is how many servers replicate the target's memory (the
	// linked tier deploys once per app server); the rent is
	// bytes × Replicas. Default 1.
	Replicas int
	// MissCostUSD is the marginal dollar cost of one cache miss — the
	// storage work a hit would have avoided. Figures estimate it from a
	// measured run: storage component cost / monthly storage contacts.
	MissCostUSD float64

	// MinBytes/MaxBytes clamp the size the controller may choose.
	// Defaults: 1 MiB and 4 GiB.
	MinBytes, MaxBytes int64

	// Registry, when set, receives elastic.* counters/gauges and a
	// /statusz section.
	Registry *telemetry.Registry

	// CurveFn overrides the observed curve (tests). Nil uses the
	// windowed analyzer fed by Observe.
	CurveFn func() Curve
	// DemandQPS overrides the measured request rate (tests). Nil
	// derives it from Observe counts and the clock.
	DemandQPS func() float64
}

// The size loop's fixed tuning, typed so Tick's arithmetic rounds as it
// did when these were config fields.
const (
	// stepFrac is the multiplicative step per tick: each tick moves the
	// size by at most ±stepFrac of its current value.
	stepFrac float64 = 0.15
	// hysteresis is the minimum relative cost improvement required to
	// move at all; below it the controller holds, which is what keeps
	// it from oscillating around a flat minimum.
	hysteresis float64 = 0.02
	// decay is the windowed MRC's previous-generation weight.
	decay float64 = 0.5
	// window is the windowed MRC's accesses per generation.
	window = 4096
	// minSamples is the curve weight below which a tick holds
	// everything.
	minSamples float64 = 512
)

// Decision is the outcome of one Tick, for figures and tests.
type Decision struct {
	Ticked      bool // false when held for insufficient samples
	QPS         float64
	MissRatio   float64 // at the chosen size
	TargetBytes int64
	Resized     bool
	// EstMonthlyUSD is the controller's own cost estimate at the chosen
	// operating point (memory rent + miss cost).
	EstMonthlyUSD float64
}

// Controller is the elastic provisioning loop. Observe feeds it the
// access stream (cheap, amortized O(log n)); Tick — called on the
// experiment driver's op clock or any periodic timer — moves the knobs.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	win      *cache.WindowedAnalyzer
	ops      int64
	lastTick time.Time
	last     Decision
	nResizes int64

	ticks, holds, resizes   *telemetry.Counter
	gTarget, gActual, gMiss *telemetry.Gauge
	gCost, gQPS             *telemetry.Gauge
}

// New builds a controller. The target's current capacity is the
// starting operating point.
func New(cfg Config) *Controller {
	if cfg.Name == "" {
		cfg.Name = "cache"
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.MinBytes <= 0 {
		cfg.MinBytes = 1 << 20
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 4 << 30
	}
	c := &Controller{
		cfg: cfg,
		win: cache.NewWindowedAnalyzer(window, decay),
	}
	c.lastTick = time.Now()
	c.last.TargetBytes = cfg.Target.Capacity()
	if reg := cfg.Registry; reg != nil {
		lbl := telemetry.L("tier", cfg.Name)
		c.ticks = reg.Counter("elastic.ticks", lbl)
		c.holds = reg.Counter("elastic.holds", lbl)
		c.resizes = reg.Counter("elastic.resizes", lbl)
		c.gTarget = reg.Gauge("elastic.target_bytes", lbl)
		c.gActual = reg.Gauge("elastic.actual_bytes", lbl)
		c.gMiss = reg.Gauge("elastic.miss_ratio_ppm", lbl)
		c.gCost = reg.Gauge("elastic.est_cost_cents_month", lbl)
		c.gQPS = reg.Gauge("elastic.qps", lbl)
		c.gTarget.Set(c.last.TargetBytes)
		c.gActual.Set(cfg.Target.Capacity())
		reg.RegisterStatus("elastic."+cfg.Name, c.statusz)
	}
	return c
}

// Observe records one cache access (key and its budgeted bytes). Safe
// for concurrent use.
func (c *Controller) Observe(key string, size int64) {
	c.mu.Lock()
	c.win.Access(key, size)
	c.ops++
	c.mu.Unlock()
}

// TargetBytes returns the size the controller last chose (or started
// from).
func (c *Controller) TargetBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last.TargetBytes
}

// Resizes returns how many times the controller has moved the size knob.
func (c *Controller) Resizes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nResizes
}

// Tick evaluates the live curve and moves the size knob one bounded step
// toward the cost minimum. Call it periodically; each call
// is cheap (one curve freeze + a handful of cost evaluations).
func (c *Controller) Tick() Decision {
	c.mu.Lock()
	defer c.mu.Unlock()

	now := time.Now()
	elapsed := now.Sub(c.lastTick).Seconds()
	c.lastTick = now

	var curve Curve
	if c.cfg.CurveFn != nil {
		curve = c.cfg.CurveFn()
	} else {
		curve = c.win.Curve()
	}
	qps := 0.0
	if c.cfg.DemandQPS != nil {
		qps = c.cfg.DemandQPS()
	} else if elapsed > 0 {
		qps = float64(c.ops) / elapsed
	}
	c.ops = 0

	d := Decision{QPS: qps, TargetBytes: c.last.TargetBytes}
	if curve.Weight() < minSamples || qps <= 0 {
		if c.holds != nil {
			c.holds.Inc()
		}
		c.last = d
		return d
	}
	d.Ticked = true

	cur := c.cfg.Target.Capacity()
	costAt := func(s int64) float64 {
		rent := c.cfg.Prices.MemCost(s * int64(c.cfg.Replicas))
		miss := qps * curve.MissRatio(s) * secondsPerMonth * c.cfg.MissCostUSD
		return rent + miss
	}
	best, bestCost := cur, costAt(cur)
	for _, cand := range []int64{
		clamp(int64(float64(cur)*(1-stepFrac)), c.cfg.MinBytes, c.cfg.MaxBytes),
		clamp(int64(float64(cur)*(1+stepFrac)), c.cfg.MinBytes, c.cfg.MaxBytes),
	} {
		if cand == cur {
			continue
		}
		if cc := costAt(cand); cc < bestCost {
			best, bestCost = cand, cc
		}
	}
	// The hysteresis band scales with the rent at the current size — the
	// knob's own cost component — not with total cost: a workload whose
	// compulsory misses dwarf the rent would otherwise pin the size
	// forever, because no resize can touch the compulsory term.
	if best != cur && bestCost < costAt(cur)-hysteresis*c.cfg.Prices.MemCost(cur*int64(c.cfg.Replicas)) {
		c.cfg.Target.Resize(best)
		d.Resized = true
		c.nResizes++
		if c.resizes != nil {
			c.resizes.Inc()
		}
	} else {
		best, bestCost = cur, costAt(cur)
	}
	d.TargetBytes = best
	d.MissRatio = curve.MissRatio(best)
	d.EstMonthlyUSD = bestCost

	if c.ticks != nil {
		c.ticks.Inc()
		c.gTarget.Set(d.TargetBytes)
		c.gActual.Set(c.cfg.Target.Capacity())
		c.gMiss.Set(int64(d.MissRatio * 1e6))
		c.gCost.Set(int64(d.EstMonthlyUSD * 100))
		c.gQPS.Set(int64(qps))
	}
	c.last = d
	return d
}

func (c *Controller) statusz(w io.Writer) {
	c.mu.Lock()
	d := c.last
	actual := c.cfg.Target.Capacity()
	used := c.cfg.Target.UsedBytes()
	c.mu.Unlock()
	fmt.Fprintf(w, "tier: %s\n", c.cfg.Name)
	fmt.Fprintf(w, "target: %s  actual: %s  used: %s\n",
		fmtBytes(d.TargetBytes), fmtBytes(actual), fmtBytes(used))
	fmt.Fprintf(w, "qps: %.0f  miss-ratio: %.3f  est-cost: $%.2f/mo\n",
		d.QPS, d.MissRatio, d.EstMonthlyUSD)
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// OptimalBytes returns the analytic cost minimum for an exponential
// miss-ratio curve mr(s) = exp(-s/a) under the controller's cost model
// — the closed form the convergence tests check against:
//
//	s* = a · ln(qps · missUSD · secondsPerMonth / (a · memUSDPerByte))
func OptimalBytes(a, qps, missUSD, memGBMonth float64) float64 {
	perByte := memGBMonth / (1 << 30)
	return a * math.Log(qps*missUSD*secondsPerMonth/(a*perByte))
}
