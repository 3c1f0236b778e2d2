package telemetry

import "sort"

// HistState is one histogram's full merged state inside a Snapshot.
// Buckets are retained (not just the digest) so two snapshots can be
// differenced into windowed percentiles — the property the JSONL
// recorder is built on.
type HistState struct {
	Name    string
	Unit    string
	Labels  []Label
	Buckets []int64
	Count   int64
	Sum     int64
	Max     int64
}

// Summary digests the state.
func (hs HistState) Summary() HistSummary {
	return summarize(hs.Name, hs.Unit, hs.Buckets, hs.Count, hs.Sum, hs.Max)
}

// CounterState is one counter (or collector-pulled counter sample) in a
// Snapshot.
type CounterState struct {
	Name   string
	Labels []Label
	Value  float64
}

// GaugeState is one gauge (or collector-pulled gauge sample).
type GaugeState struct {
	Name   string
	Labels []Label
	Value  float64
}

// Snapshot is a point-in-time merge of a registry: push metrics merged
// across shards plus every collector's pulled samples, each slice
// sorted by metric key for deterministic exposition.
type Snapshot struct {
	Counters []CounterState
	Gauges   []GaugeState
	Hists    []HistState
}

// Snapshot merges all shards and runs all collectors. Safe to call
// concurrently with recording; the result is a consistent-enough view
// (each metric internally merged atomically, no cross-metric barrier —
// the same contract meter.Snapshot offers).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	colls := make([]Collector, 0, len(r.collectors))
	for _, name := range r.collOrder {
		colls = append(colls, r.collectors[name])
	}
	r.mu.Unlock()

	var s Snapshot
	for _, c := range counters {
		s.Counters = append(s.Counters, CounterState{Name: c.name, Labels: c.labels, Value: float64(c.Value())})
	}
	for _, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeState{Name: g.name, Labels: g.labels, Value: float64(g.Value())})
	}
	for _, h := range hists {
		buckets, count, sum, max := h.merged()
		s.Hists = append(s.Hists, HistState{
			Name: h.name, Unit: h.unit, Labels: h.labels,
			Buckets: buckets, Count: count, Sum: sum, Max: max,
		})
	}
	for _, coll := range colls {
		coll(func(sm Sample) {
			switch sm.Kind {
			case KindGauge:
				s.Gauges = append(s.Gauges, GaugeState{Name: sm.Name, Labels: sm.Labels, Value: sm.Value})
			default:
				s.Counters = append(s.Counters, CounterState{Name: sm.Name, Labels: sm.Labels, Value: sm.Value})
			}
		})
	}
	sort.Slice(s.Counters, func(i, j int) bool {
		return metricKey(s.Counters[i].Name, s.Counters[i].Labels) < metricKey(s.Counters[j].Name, s.Counters[j].Labels)
	})
	sort.Slice(s.Gauges, func(i, j int) bool {
		return metricKey(s.Gauges[i].Name, s.Gauges[i].Labels) < metricKey(s.Gauges[j].Name, s.Gauges[j].Labels)
	})
	sort.Slice(s.Hists, func(i, j int) bool {
		return metricKey(s.Hists[i].Name, s.Hists[i].Labels) < metricKey(s.Hists[j].Name, s.Hists[j].Labels)
	})
	return s
}

// HistSummaries digests every histogram in the snapshot.
func (s Snapshot) HistSummaries() []HistSummary {
	out := make([]HistSummary, 0, len(s.Hists))
	for _, hs := range s.Hists {
		out = append(out, hs.Summary())
	}
	return out
}

// DeltaSince subtracts prev from s metric-by-metric, yielding the flows
// of the window (prev, s]. Counters and histogram buckets difference;
// gauges keep their current level (a level has no delta). A metric
// absent from prev passes through whole. If a counter or bucket went
// backwards — the registry was Reset mid-window — the delta clamps to
// the current value rather than going negative.
func (s Snapshot) DeltaSince(prev Snapshot) Snapshot {
	prevCtr := make(map[string]float64, len(prev.Counters))
	for _, c := range prev.Counters {
		prevCtr[metricKey(c.Name, c.Labels)] = c.Value
	}
	prevHist := make(map[string]HistState, len(prev.Hists))
	for _, h := range prev.Hists {
		prevHist[metricKey(h.Name, h.Labels)] = h
	}

	var d Snapshot
	for _, c := range s.Counters {
		v := c.Value - prevCtr[metricKey(c.Name, c.Labels)]
		if v < 0 {
			v = c.Value
		}
		d.Counters = append(d.Counters, CounterState{Name: c.Name, Labels: c.Labels, Value: v})
	}
	d.Gauges = append(d.Gauges, s.Gauges...)
	for _, h := range s.Hists {
		p, ok := prevHist[metricKey(h.Name, h.Labels)]
		if !ok || len(p.Buckets) != len(h.Buckets) || p.Count > h.Count {
			d.Hists = append(d.Hists, h)
			continue
		}
		buckets := make([]int64, len(h.Buckets))
		for i := range h.Buckets {
			if v := h.Buckets[i] - p.Buckets[i]; v > 0 {
				buckets[i] = v
			}
		}
		d.Hists = append(d.Hists, HistState{
			Name: h.Name, Unit: h.Unit, Labels: h.Labels,
			Buckets: buckets,
			Count:   h.Count - p.Count,
			Sum:     h.Sum - p.Sum,
			Max:     h.Max, // window max is not recoverable; report the running max
		})
	}
	return d
}
