package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Recorder appends timestamped registry deltas to a writer as JSONL:
// one self-contained JSON object per line holding the window's counter
// flows, gauge levels, and windowed histogram digests (percentiles
// computed from bucket deltas, not cumulative state). A run recorded at
// one-second intervals therefore plots warm-up ramps and chaos dips
// directly — each line is that second's distribution.
type Recorder struct {
	reg *Registry
	w   io.Writer

	mu   sync.Mutex
	prev Snapshot
	enc  *json.Encoder
}

// recordLine is one JSONL line.
type recordLine struct {
	TS       string             `json:"ts"`
	UnixMS   int64              `json:"unix_ms"`
	Counters map[string]float64 `json:"counters,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
	Hists    []HistSummary      `json:"hists,omitempty"`
}

// NewRecorder starts a recorder from the registry's current state, so
// the first record emits only what happened after construction.
func NewRecorder(reg *Registry, w io.Writer) *Recorder {
	return &Recorder{reg: reg, w: w, prev: reg.Snapshot(), enc: json.NewEncoder(w)}
}

// record snapshots the registry, emits the delta since the previous
// record as one JSONL line stamped now, and advances the baseline.
func (r *Recorder) record(now time.Time) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.reg.Snapshot()
	delta := cur.DeltaSince(r.prev)
	r.prev = cur

	line := recordLine{
		TS:     now.UTC().Format(time.RFC3339Nano),
		UnixMS: now.UnixMilli(),
	}
	if len(delta.Counters) > 0 {
		line.Counters = make(map[string]float64, len(delta.Counters))
		for _, c := range delta.Counters {
			line.Counters[metricKey(c.Name, c.Labels)] = c.Value
		}
	}
	if len(delta.Gauges) > 0 {
		line.Gauges = make(map[string]float64, len(delta.Gauges))
		for _, g := range delta.Gauges {
			line.Gauges[metricKey(g.Name, g.Labels)] = g.Value
		}
	}
	for _, hs := range delta.Hists {
		if hs.Count == 0 {
			continue
		}
		s := hs.Summary()
		s.Name = metricKey(hs.Name, hs.Labels)
		line.Hists = append(line.Hists, s)
	}
	return r.enc.Encode(line)
}

// Run records every interval until stop is closed, then records one
// final line and returns. Intended as `go rec.Run(interval, stop, done)`.
func (r *Recorder) Run(interval time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			_ = r.record(now)
		case <-stop:
			_ = r.record(time.Now())
			return
		}
	}
}
