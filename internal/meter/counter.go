package meter

import (
	"sort"
	"sync/atomic"
)

// Counter is a named event counter attached to a Meter. Unlike Component
// busy time, a Counter counts discrete events that matter to an
// experiment's interpretation but are not priced directly: degraded cache
// operations, retry attempts, injected faults. Counters are flows — they
// are zeroed by Meter.Reset alongside busy time, so a metered window's
// counters describe that window only.
type Counter struct {
	name string
	n    atomic.Int64
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Counter returns the named counter, creating it on first use. Like
// components, counters are identified by stable dotted names such as
// "cache.degraded" or "rpc.retries".
func (m *Meter) Counter(name string) *Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.counters == nil {
		m.counters = make(map[string]*Counter)
	}
	c, ok := m.counters[name]
	if !ok {
		c = &Counter{name: name}
		m.counters[name] = c
	}
	return c
}

// CounterValue returns the named counter's value, or 0 if it was never
// created. It does not create the counter.
func (m *Meter) CounterValue(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.counters[name]; ok {
		return c.n.Load()
	}
	return 0
}

// CounterSnapshot is a frozen view of one counter.
type CounterSnapshot struct {
	Name  string
	Value int64
}

// Counters returns a point-in-time copy of every counter, sorted by name.
func (m *Meter) Counters() []CounterSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]CounterSnapshot, 0, len(m.counters))
	for _, c := range m.counters {
		out = append(out, CounterSnapshot{Name: c.name, Value: c.n.Load()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
