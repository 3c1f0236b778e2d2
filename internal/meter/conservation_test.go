package meter_test

import (
	"testing"
	"time"

	"cachecost/internal/meter"
	"cachecost/internal/telemetry"
)

// TestHistogramMeterConservation cross-checks the two measurement
// planes: when a component's op counter and a latency histogram are fed
// from the same events, the histogram's observation count must equal
// the component's Ops exactly — both through direct reads and through
// the RegisterMeter bridge's pulled samples. Any drift means one plane
// is dropping or double-counting work.
func TestHistogramMeterConservation(t *testing.T) {
	m := meter.NewMeter()
	comp := m.Component("storage.sql")
	reg := telemetry.NewRegistry()
	hist := reg.Histogram("storage.stmt.latency", "seconds")
	telemetry.RegisterMeter(reg, "meter", m)

	const ops = 5000
	for i := 0; i < ops; i++ {
		d := time.Duration(50+i%97) * time.Microsecond
		comp.AddBusy(d)
		comp.AddOps(1)
		hist.Observe(int64(d))
	}

	hs := reg.Snapshot().HistSummaries()
	if len(hs) != 1 || hs[0].Count != ops || comp.Ops() != ops {
		t.Fatalf("histograms %+v vs component ops %d, want one of count %d", hs, comp.Ops(), ops)
	}
	if got := time.Duration(hs[0].Sum); got != comp.Busy() {
		t.Fatalf("histogram sum %v vs component busy %v", got, comp.Busy())
	}

	// The same invariant must survive the pull bridge: the registry's
	// snapshot carries both planes, and meter.ops agrees with the
	// histogram state.
	snap := reg.Snapshot()
	var pulledOps float64
	for _, c := range snap.Counters {
		if c.Name != "meter.ops" {
			continue
		}
		for _, l := range c.Labels {
			if l.Key == "component" && l.Value == "storage.sql" {
				pulledOps = c.Value
			}
		}
	}
	if pulledOps != ops {
		t.Fatalf("bridged meter.ops = %v, want %d", pulledOps, ops)
	}
	for _, h := range snap.Hists {
		if h.Name == "storage.stmt.latency" && h.Count != ops {
			t.Fatalf("snapshot histogram count = %d, want %d", h.Count, ops)
		}
	}
}
