// Package meter provides the cost-accounting substrate for the cachecost
// laboratory.
//
// The paper's methodology ("Rethinking the Cost of Distributed Caches for
// Datacenter Services", HotNets '25, §5.1) estimates the per-request CPU
// cost of a component by measuring the CPU cores it keeps busy and dividing
// by the request rate, then prices cores and memory at cloud list prices.
// This package implements exactly that: components register with a Meter,
// attribute busy time and provisioned memory to themselves, and the Meter
// turns the measurements into monthly dollar costs.
//
// Attribution is cooperative. A request carries a Lane, a lap clock that
// hands each stretch of its busy time to exactly one component; code with
// no request context times its work with a Stopwatch (Component.Start).
// Because every component in this repository does real CPU work (parsing,
// planning, encoding, copying), busy wall-time of a non-blocking handler
// is a faithful proxy for CPU time, which is what the paper measures.
//
// The Lane is the request's whole record, not only its laps: it also
// carries the flight recorder's stage times and the request's path counts
// (hops, cache messages, SQL statements, raft ships, and the fault-path
// events: cache demotions, retries, expired deadlines), which the
// meter sums per window (Meter.Path) beside the busy time it prices. A
// path event is counted once, on the lane, at the one site that decides
// it; the request's outcome flags are read off those counts.
package meter

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Meter aggregates busy time and provisioned memory per component.
// The zero value is not usable; call NewMeter.
type Meter struct {
	mu         sync.Mutex
	components map[string]*Component
	start      time.Time
	requests   atomic.Int64
	// clk is the time source for busy measurements, shared with every
	// component and lane on the meter.
	clk busyClock
	// path sums the path counts of every lane closed since Reset.
	path [numPathFields]atomic.Int64
}

// SetThreadCPUClock switches busy-time measurement between the wall
// clock (default) and the calling OS thread's CPU clock. Thread-CPU mode
// makes measurements immune to goroutine preemption and lock waits —
// essential when several workers drive the service on fewer cores — but
// requires each measuring goroutine to be pinned with
// runtime.LockOSThread for its readings to be taken against one thread.
// The experiment driver enables it for the duration of a run. Switch
// only while no measurement is in flight.
func (m *Meter) SetThreadCPUClock(on bool) { m.clk.threadCPU.Store(on) }

// NewMeter returns an empty Meter whose elapsed-time clock starts now.
func NewMeter() *Meter {
	return &Meter{
		components: make(map[string]*Component),
		start:      time.Now(),
	}
}

// Component returns the named component, creating it on first use.
// Components are identified by stable names such as "app", "remotecache",
// "storage.sql", "storage.kv". Dots form a hierarchy: Report can roll
// sub-components up into their parent.
func (m *Meter) Component(name string) *Component {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.components[name]
	if !ok {
		// The memory integral anchors at the window start, not at
		// creation: a component built moments into the window whose level
		// is then set once (the universal construction pattern) prices
		// exactly that level, bit-for-bit compatible with level pricing.
		c = &Component{name: name, m: m, memAnchor: m.start}
		m.components[name] = c
	}
	return c
}

// AddRequests records n completed client-visible requests. The per-request
// cost figures in a Report divide by this count.
func (m *Meter) AddRequests(n int64) { m.requests.Add(n) }

// Requests returns the number of client-visible requests recorded so far.
func (m *Meter) Requests() int64 { return m.requests.Load() }

// Reset zeroes the flow counters (busy time, ops, modeled units,
// requests, path counts) and restarts the elapsed clock. Provisioned
// memory is a level, not a flow — it survives Reset, so warmup can be
// discarded without re-registering every cache's footprint.
func (m *Meter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	for _, c := range m.components {
		c.busyNanos.Store(0)
		c.ops.Store(0)
		c.units.Store(0)
		// Restart the memory integral at the new window boundary: the
		// level carries over, the byte-seconds of the old window do not.
		c.memMu.Lock()
		c.memInt = 0
		c.memAnchor = now
		c.memMu.Unlock()
	}
	for i := range m.path {
		m.path[i].Store(0)
	}
	m.requests.Store(0)
	m.start = now
}

// Elapsed returns the wall time since the meter was created or last Reset.
func (m *Meter) Elapsed() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return time.Since(m.start)
}

// Snapshot returns a point-in-time copy of every component's counters,
// sorted by component name.
func (m *Meter) Snapshot() []ComponentSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	out := make([]ComponentSnapshot, 0, len(m.components))
	for _, c := range m.components {
		out = append(out, ComponentSnapshot{
			Name:        c.name,
			Busy:        time.Duration(c.busyNanos.Load()),
			MemBytes:    c.memBytes.Load(),
			MemAvgBytes: c.avgMemBytes(m.start, now),
			DiskBytes:   c.diskBytes.Load(),
			Ops:         c.ops.Load(),
			Units:       c.units.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Component accumulates busy time, operation counts and provisioned memory
// for one logical service (application server, cache tier, storage node...).
// All methods are safe for concurrent use.
type Component struct {
	name      string
	busyNanos atomic.Int64
	memBytes  atomic.Int64
	diskBytes atomic.Int64
	ops       atomic.Int64
	units     atomic.Int64 // modeled work burned as the component's (Lane.Settle)
	m         *Meter       // the owning meter, whose clock times the component

	// Provisioned memory is priced by its time-average over the metered
	// window, so a controller that resizes a cache mid-window is billed
	// for the byte-seconds it actually held, not the level it happened to
	// end on. The level itself stays in memBytes (atomic, hot getters);
	// memMu guards the integral, which only the rare change path touches.
	memMu     sync.Mutex
	memInt    float64   // byte-seconds accumulated over completed segments
	memAnchor time.Time // start of the current constant-level segment
}

// AddBusy attributes d of busy CPU time to the component.
func (c *Component) AddBusy(d time.Duration) {
	if d > 0 {
		c.busyNanos.Add(int64(d))
	}
}

// AddOps adds n to the component's operation counter.
func (c *Component) AddOps(n int64) { c.ops.Add(n) }

// SetMemBytes records the memory provisioned for the component, in bytes.
// Provisioned memory is a level, not a rate, so Set replaces rather than
// accumulates. Reports price the level's time-average over the window,
// so mid-window changes (an elastic controller resizing a cache) bill
// the byte-seconds actually held.
func (c *Component) SetMemBytes(n int64) {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	prev := c.memBytes.Load()
	// Establishing a footprint for the first time in a window (prior
	// level zero, nothing integrated yet) is retroactive to the window
	// start: the universal pattern of setting a cache's budget once at
	// build time keeps pricing exactly that budget. Otherwise the
	// outgoing level is integrated into the window's byte-seconds.
	if prev != 0 || c.memInt != 0 {
		now := time.Now()
		if d := now.Sub(c.memAnchor); d > 0 {
			c.memInt += float64(prev) * d.Seconds()
		}
		c.memAnchor = now
	}
	c.memBytes.Store(n)
}

// avgMemBytes returns the level's time-average over [windowStart, now].
// A level that never moved inside the window returns itself exactly.
func (c *Component) avgMemBytes(windowStart, now time.Time) int64 {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	level := c.memBytes.Load()
	if c.memInt == 0 && !c.memAnchor.After(windowStart) {
		return level // constant all window: avoid FP round-off entirely
	}
	elapsed := now.Sub(windowStart).Seconds()
	if elapsed <= 0 {
		return level
	}
	total := c.memInt
	if d := now.Sub(c.memAnchor); d > 0 {
		total += float64(level) * d.Seconds()
	}
	avg := total / elapsed
	if avg < 0 {
		return 0
	}
	return int64(avg + 0.5)
}

// AddDiskBytes adjusts the persistent-storage footprint by delta bytes
// (may be negative). Durable stores report file-size deltas after each
// flush or compaction so several stores can share one component.
func (c *Component) AddDiskBytes(delta int64) { c.diskBytes.Add(delta) }

// DiskBytes returns the current persistent-storage footprint in bytes.
func (c *Component) DiskBytes() int64 { return c.diskBytes.Load() }

// Busy returns the total busy time attributed so far.
func (c *Component) Busy() time.Duration { return time.Duration(c.busyNanos.Load()) }

// MemBytes returns the currently provisioned memory in bytes.
func (c *Component) MemBytes() int64 { return c.memBytes.Load() }

// Ops returns the operation count.
func (c *Component) Ops() int64 { return c.ops.Load() }

// Start returns a running Stopwatch bound to this component, for code with
// no request lane to lap (kv.Store meters itself this way).
func (c *Component) Start() *Stopwatch {
	return &Stopwatch{c: c, t0: c.m.clk.now()}
}

// Stopwatch meters one operation of a single component. It is not safe
// for concurrent use; each in-flight operation should own one.
type Stopwatch struct {
	c  *Component
	t0 int64 // busyClock reading at Start
}

// Stop ends the measurement, attributes the elapsed busy time to the
// component, counts one operation, and returns the busy time. The stopwatch
// must not be reused after Stop.
func (s *Stopwatch) Stop() time.Duration {
	d := time.Duration(max(s.c.m.clk.now()-s.t0, 0))
	s.c.AddBusy(d)
	s.c.AddOps(1)
	return d
}

// ComponentSnapshot is a frozen view of one component's counters.
type ComponentSnapshot struct {
	Name     string
	Busy     time.Duration
	MemBytes int64 // current provisioned level
	// MemAvgBytes is the level's time-average over the metered window —
	// what reports price. Equal to MemBytes unless the level moved
	// mid-window (elastic resizing).
	MemAvgBytes int64
	DiskBytes   int64
	Ops         int64
	// Units is the modeled work, in Burner units, burned as the
	// component's: a deterministic count, where Busy is measured.
	Units int64
}

// Cores converts busy time over an elapsed window into equivalent fully-busy
// CPU cores, the quantity the paper prices.
func (s ComponentSnapshot) Cores(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(s.Busy) / float64(elapsed)
}
