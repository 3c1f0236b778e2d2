package flight

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cachecost/internal/meter"
	"cachecost/internal/telemetry"
	"cachecost/internal/trace"
)

// TestWatchdogDumpOnFastBurn drives the watchdog through a healthy
// window, then two consecutive fast-burn windows, and checks the
// black-box dump: it fires on the second bad window (not the first),
// and the dump directory holds the exemplars, the statusz render, and
// the recent snapshot deltas.
func TestWatchdogDumpOnFastBurn(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := meter.NewMeter()
	telemetry.RegisterMeter(reg, "meter", m)
	expire := func() { // one request that reached the front door past its deadline
		l := meter.OpenLane(m.Component("app"))
		l.CountDeadline()
		l.Close()
	}
	lat := reg.Histogram("request.latency", "seconds")
	rec := New(Config{})

	// One retained exemplar so the dump has something to preserve.
	l := meter.OpenLane(testComp)
	sc := rec.Begin(trace.SpanContext{}.WithLane(l))
	l.AddStage(meter.StageStorage, l.StageClock()-int64(40*time.Millisecond)) // a 40 ms storage stage
	l.CountDeadline()
	rec.Done(sc, "Test", "test.Op", time.Now(), 45*time.Millisecond, nil)
	l.Close()

	dir := t.TempDir()
	w := NewWatchdog(WatchdogConfig{
		Registry: reg,
		Recorder: rec,
		Dir:      dir,
	})

	now := time.Unix(1700000000, 0)
	// Baseline window.
	for i := 0; i < 100; i++ {
		lat.Observe(int64(time.Millisecond))
	}
	if burn, d, _ := w.tick(now); burn != 0 || d != "" {
		t.Fatalf("baseline tick: burn=%g dump=%q, want 0 and none", burn, d)
	}

	// Healthy window: 1000 requests, one expired → burn 1.0 (budget 0.1%).
	for i := 0; i < 1000; i++ {
		lat.Observe(int64(time.Millisecond))
	}
	expire()
	now = now.Add(time.Minute)
	if burn, d, _ := w.tick(now); burn >= 14 || d != "" {
		t.Fatalf("healthy tick: burn=%g dump=%q, want <14 and none", burn, d)
	}

	// First fast-burn window: 5% bad = burn 50. One window must NOT dump.
	for i := 0; i < 1000; i++ {
		lat.Observe(int64(time.Millisecond))
	}
	for i := 0; i < 50; i++ {
		expire()
	}
	now = now.Add(time.Minute)
	burn, d, err := w.tick(now)
	if err != nil {
		t.Fatal(err)
	}
	if burn < 14 {
		t.Fatalf("first bad tick: burn=%g, want >=14", burn)
	}
	if d != "" {
		t.Fatalf("first bad tick dumped to %q; a single noisy window must not fire", d)
	}

	// Second consecutive fast-burn window: now it dumps.
	for i := 0; i < 1000; i++ {
		lat.Observe(int64(time.Millisecond))
	}
	for i := 0; i < 50; i++ {
		expire()
	}
	now = now.Add(time.Minute)
	_, d, err = w.tick(now)
	if err != nil {
		t.Fatal(err)
	}
	if d == "" {
		t.Fatal("second consecutive fast-burn window did not dump")
	}

	// The dump is the post-incident record: exemplars, statusz, deltas.
	var payload struct {
		Total     int64                        `json:"total"`
		Exemplars map[string][]json.RawMessage `json:"exemplars"`
	}
	raw, err := os.ReadFile(filepath.Join(d, "exemplars.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Exemplars["deadline"]) != 1 {
		t.Fatalf("dump retains %d deadline exemplars, want 1", len(payload.Exemplars["deadline"]))
	}
	if st, err := os.ReadFile(filepath.Join(d, "statusz.txt")); err != nil || len(st) == 0 {
		t.Fatalf("statusz.txt: err=%v len=%d", err, len(st))
	}
	deltas, err := os.ReadFile(filepath.Join(d, "deltas.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(strings.TrimSpace(string(deltas)), "\n") + 1
	if lines < 3 {
		t.Fatalf("deltas.jsonl has %d windows, want the watched history (>=3)", lines)
	}
}
