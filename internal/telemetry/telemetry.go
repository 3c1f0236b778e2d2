// Package telemetry is the live metrics plane of the cachecost
// laboratory: a lock-free, shard-per-core registry of counters, gauges
// and log-bucketed histograms that the hot paths of the rpc, cache,
// storage, fault and meter layers feed while a workload runs.
//
// The paper's argument is quantitative — cost/Mreq, CPU attribution and
// tail latency per architecture — but the repository's end-of-run
// RunResult aggregates cannot be observed mid-run, and the long-running
// server binaries expose no runtime signals at all. This package closes
// that gap with the same contention-free discipline the meter
// established (PR 2): recording is an atomic add into a cache-padded
// shard chosen per goroutine, merging happens only on read, and the
// record path performs zero allocations — so instrumenting a hot path
// does not perturb the costs it measures.
//
// Exposition is threefold: Prometheus text and JSON over the ops HTTP
// endpoint (see ops.go), timestamped JSONL deltas via the snapshot
// Recorder (recorder.go), and per-window histogram summaries merged into
// core.RunResult.
package telemetry

import (
	"io"
	"sort"
	"sync"
	"unsafe"
)

// Label is one name="value" pair qualifying a metric.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// metricKey renders the canonical identity of a metric: its name plus
// its sorted label pairs. Two registrations with the same key return the
// same metric.
func metricKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	k := name + "{"
	for i, l := range labels {
		if i > 0 {
			k += ","
		}
		k += l.Key + "=\"" + l.Value + "\""
	}
	return k + "}"
}

// sortLabels returns a sorted copy so metric identity is order-free.
func sortLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// shardCount is the number of cache-padded cells sharded metrics fan
// writes across. It is fixed at init so metric layout never changes.
var shardCount = defaultShardCount()

// shardMask is shardCount-1 (shardCount is a power of two).
var shardMask = uint64(shardCount - 1)

// shardIndex picks this goroutine's shard. Go does not expose the
// running P cheaply, so the index is derived from the address of a
// stack variable: distinct goroutines live on distinct stacks, giving
// distinct shards, while one goroutine's tight loop re-uses one frame
// address and therefore keeps hitting the same (cache-warm) cell. The
// pointer is only hashed, never dereferenced or stored, and nothing
// escapes — the record path stays allocation-free.
func shardIndex() uint64 {
	var probe byte
	p := uint64(uintptr(unsafe.Pointer(&probe)))
	// splitmix64 finalizer: stack addresses share high bits, so mix
	// before masking.
	p ^= p >> 30
	p *= 0xbf58476d1ce4e5b9
	p ^= p >> 27
	p *= 0x94d049bb133111eb
	p ^= p >> 31
	return p & shardMask
}

// padCell is one cache-line-padded atomic counter cell. The padding
// keeps two shards from false-sharing a line when different cores
// record concurrently.
type padCell struct {
	v pad64
	_ [56]byte
}

// Counter is a monotonically increasing event counter. All methods are
// safe for concurrent use, and every method is a no-op on a nil
// receiver so call sites stay one pointer test when telemetry is off.
type Counter struct {
	name   string
	labels []Label
	cells  []padCell
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.cells[shardIndex()].v.Add(1)
}

// Value merges the shards into the current total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var sum int64
	for i := range c.cells {
		sum += c.cells[i].v.Load()
	}
	return sum
}

// reset zeroes every shard (metered-window boundary).
func (c *Counter) reset() {
	for i := range c.cells {
		c.cells[i].v.Store(0)
	}
}

// Gauge is a level — provisioned bytes, up/down. Set replaces. Gauges are written at low rates, so a single
// atomic suffices. Nil-safe like Counter.
type Gauge struct {
	name   string
	labels []Label
	v      pad64
}

// Set stores the current level.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// SampleKind tags a collector-emitted sample.
type SampleKind int

// Collector sample kinds.
const (
	KindCounter SampleKind = iota
	KindGauge
)

// Sample is one value a Collector contributes to a snapshot.
type Sample struct {
	Name   string
	Labels []Label
	Kind   SampleKind
	Value  float64
}

// Collector pulls values that already live as atomic state elsewhere
// (cache hit counters, meter components and path counts) into a
// snapshot. Pull-based feeds add zero cost to their hot paths: the
// owning structures keep their existing counters and the registry reads
// them only when scraped.
type Collector func(emit func(Sample))

// Registry holds every metric of one process (or one experiment run).
// Registration takes a mutex; recording into registered metrics is
// lock-free.
type Registry struct {
	mu          sync.Mutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	hists       map[string]*Histogram
	collectors  map[string]Collector
	collOrder   []string
	status      map[string]func(w io.Writer)
	statusOrder []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		hists:      make(map[string]*Histogram),
		collectors: make(map[string]Collector),
		status:     make(map[string]func(w io.Writer)),
	}
}

// Counter returns the named counter, creating it on first use. Nil
// registries return nil metrics, whose methods are no-ops — callers can
// wire telemetry unconditionally and pay one pointer test when it is
// disabled.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	labels = sortLabels(labels)
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{name: name, labels: labels, cells: make([]padCell, shardCount)}
		r.counters[key] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	labels = sortLabels(labels)
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{name: name, labels: labels}
		r.gauges[key] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. unit
// labels the base unit of observed values for exposition ("seconds"
// scales nanosecond observations; "bytes" and "" pass through).
func (r *Registry) Histogram(name, unit string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	labels = sortLabels(labels)
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[key]
	if !ok {
		h = newHistogram(name, unit, labels)
		r.hists[key] = h
	}
	return h
}

// RegisterCollector installs (or replaces) the named pull collector.
// Naming makes registration idempotent across experiment cells: each
// cell re-registers its fresh service's collector under the same name,
// replacing the previous cell's, so snapshots never read dead state
// twice.
func (r *Registry) RegisterCollector(name string, c Collector) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.collectors[name]; !ok {
		r.collOrder = append(r.collOrder, name)
	}
	r.collectors[name] = c
}

// StatusSection is one registered plain-text status renderer: a named
// block appended to /statusz output.
type StatusSection struct {
	Name   string
	Render func(w io.Writer)
}

// RegisterStatus installs (or replaces) a named plain-text status
// section. Subsystems whose live state does not reduce to scalar
// metrics — the shard manager's hot-key list and replica placements,
// for instance — register a renderer here and the ops endpoint appends
// it to /statusz. Naming makes registration idempotent across
// experiment cells, like RegisterCollector.
func (r *Registry) RegisterStatus(name string, fn func(w io.Writer)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.status[name]; !ok {
		r.statusOrder = append(r.statusOrder, name)
	}
	r.status[name] = fn
}

// StatusSections returns the registered status renderers in
// registration order.
func (r *Registry) StatusSections() []StatusSection {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]StatusSection, 0, len(r.statusOrder))
	for _, name := range r.statusOrder {
		out = append(out, StatusSection{Name: name, Render: r.status[name]})
	}
	return out
}

// Reset zeroes every counter and histogram (flows); gauges (levels) and
// collectors are untouched. The experiment driver calls it at the
// metered-window boundary, mirroring meter.Reset.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, h := range r.hists {
		h.reset()
	}
}
