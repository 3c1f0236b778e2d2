package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterIdentityAndLabels(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits", L("node", "cache0"))
	b := r.Counter("hits", L("node", "cache0"))
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	// Label order must not matter.
	c1 := r.Counter("x", L("a", "1"), L("b", "2"))
	c2 := r.Counter("x", L("b", "2"), L("a", "1"))
	if c1 != c2 {
		t.Fatal("label order changed metric identity")
	}
	// Different labels are different metrics.
	if r.Counter("hits", L("node", "cache1")) == a {
		t.Fatal("distinct labels shared a counter")
	}
	add(a, 3)
	a.Inc()
	if a.Value() != 4 {
		t.Fatalf("Value = %d, want 4", a.Value())
	}
}

// add bumps c n times.
func add(c *Counter, n int) {
	for i := 0; i < n; i++ {
		c.Inc()
	}
}

func TestGaugeSetAdd(t *testing.T) {
	g := NewRegistry().Gauge("mem")
	g.Set(100)
	g.Set(70)
	if g.Value() != 70 {
		t.Fatalf("Value = %d, want 70: Set replaces", g.Value())
	}
}

// TestNilRegistrySafe: a nil registry hands out nil metrics whose every
// method is a no-op — the disabled-telemetry contract call sites rely on.
func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", "")
	c.Inc()
	g.Set(1)
	h.Observe(1)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil metrics accumulated state")
	}
	r.RegisterCollector("none", func(func(Sample)) {})
	r.Reset()
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestCounterParallelExact(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("Value = %d, want %d", c.Value(), workers*per)
	}
}

// TestResetZeroesFlowsKeepsLevels mirrors meter.Reset semantics:
// counters and histograms (flows) zero, gauges (levels) survive.
func TestResetZeroesFlowsKeepsLevels(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("flow")
	g := r.Gauge("level")
	h := r.Histogram("lat", "")
	c.Inc()
	g.Set(42)
	h.Observe(100)
	r.Reset()
	d := digest(t, r)
	if c.Value() != 0 || d.Count != 0 || d.Sum != 0 || d.Max != 0 {
		t.Fatal("Reset left flow state behind")
	}
	if d.P50 != 0 {
		t.Fatal("Reset left bucket state behind")
	}
	if g.Value() != 42 {
		t.Fatal("Reset clobbered a gauge level")
	}
}

// TestCollectorReplaceByName: registering under an existing name
// replaces the collector — the idempotency per-cell experiment drivers
// depend on — and snapshots carry the pulled samples.
func TestCollectorReplaceByName(t *testing.T) {
	r := NewRegistry()
	r.RegisterCollector("svc", func(emit func(Sample)) {
		emit(Sample{Name: "pull.hits", Kind: KindCounter, Value: 1})
	})
	r.RegisterCollector("svc", func(emit func(Sample)) {
		emit(Sample{Name: "pull.hits", Kind: KindCounter, Value: 2})
		emit(Sample{Name: "pull.mem", Kind: KindGauge, Value: 7})
	})
	s := r.Snapshot()
	var hits, mem float64
	var nHits int
	for _, c := range s.Counters {
		if c.Name == "pull.hits" {
			hits = c.Value
			nHits++
		}
	}
	for _, g := range s.Gauges {
		if g.Name == "pull.mem" {
			mem = g.Value
		}
	}
	if nHits != 1 || hits != 2 {
		t.Fatalf("replaced collector emitted %d samples, latest value %g", nHits, hits)
	}
	if mem != 7 {
		t.Fatalf("gauge sample missing: %g", mem)
	}
}

// TestSnapshotSortedDeterministic: two snapshots of the same state list
// metrics in the same (sorted) order regardless of map iteration.
func TestSnapshotSortedDeterministic(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		r.Counter(n).Inc()
	}
	s := r.Snapshot()
	names := make([]string, len(s.Counters))
	for i, c := range s.Counters {
		names[i] = c.Name
	}
	want := []string{"alpha", "mid", "zeta"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("snapshot order %v, want %v", names, want)
	}
}

func TestDeltaSince(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	g := r.Gauge("mem")
	h := r.Histogram("lat", "")
	add(c, 10)
	g.Set(5)
	h.Observe(100)
	h.Observe(200)
	prev := r.Snapshot()

	add(c, 7)
	g.Set(9)
	h.Observe(400)
	cur := r.Snapshot()

	d := cur.DeltaSince(prev)
	if v := findCounter(d, "ops"); v != 7 {
		t.Errorf("counter delta = %g, want 7", v)
	}
	// Gauges pass through as levels.
	var mem float64
	for _, gs := range d.Gauges {
		if gs.Name == "mem" {
			mem = gs.Value
		}
	}
	if mem != 9 {
		t.Errorf("gauge level = %g, want 9", mem)
	}
	if len(d.Hists) != 1 || d.Hists[0].Count != 1 || d.Hists[0].Sum != 400 {
		t.Fatalf("hist delta %+v", d.Hists)
	}
	// The windowed quantile reflects only the new observation.
	if p50 := d.Hists[0].Summary().P50; p50 < 380 || p50 > 420 {
		t.Errorf("windowed p50 = %d, want ~400", p50)
	}
}

// TestDeltaSinceClampsAfterReset: a Reset between snapshots must not
// produce negative deltas — the delta clamps to the current value.
func TestDeltaSinceClampsAfterReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	h := r.Histogram("lat", "")
	add(c, 100)
	h.Observe(50)
	h.Observe(60)
	prev := r.Snapshot()

	r.Reset()
	add(c, 3)
	h.Observe(70)
	cur := r.Snapshot()

	d := cur.DeltaSince(prev)
	if v := findCounter(d, "ops"); v != 3 {
		t.Errorf("post-reset counter delta = %g, want 3 (clamped)", v)
	}
	if len(d.Hists) != 1 || d.Hists[0].Count != 1 {
		t.Fatalf("post-reset hist delta %+v", d.Hists)
	}
}

// TestDeltaSinceNewMetric: a metric absent from the baseline passes
// through whole.
func TestDeltaSinceNewMetric(t *testing.T) {
	r := NewRegistry()
	prev := r.Snapshot()
	add(r.Counter("fresh"), 4)
	r.Histogram("lat", "").Observe(10)
	d := r.Snapshot().DeltaSince(prev)
	if v := findCounter(d, "fresh"); v != 4 {
		t.Errorf("new counter delta = %g, want 4", v)
	}
	if len(d.Hists) != 1 || d.Hists[0].Count != 1 {
		t.Fatalf("new hist delta %+v", d.Hists)
	}
}

func findCounter(s Snapshot, name string) float64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return -1
}

func TestMetricKey(t *testing.T) {
	if k := metricKey("a", nil); k != "a" {
		t.Errorf("bare key %q", k)
	}
	k := metricKey("a", []Label{L("x", "1"), L("y", "2")})
	if k != `a{x="1",y="2"}` {
		t.Errorf("labelled key %q", k)
	}
}
