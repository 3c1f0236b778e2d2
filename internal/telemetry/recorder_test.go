package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestRecorderEmitsWindowedDeltas(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	h := r.Histogram("lat", "")
	g := r.Gauge("mem")

	var buf bytes.Buffer
	rec := NewRecorder(r, &buf)

	// Window 1: 5 ops around 100ns.
	add(c, 5)
	g.Set(1024)
	for i := 0; i < 5; i++ {
		h.Observe(100)
	}
	t0 := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	if err := rec.record(t0); err != nil {
		t.Fatal(err)
	}

	// Window 2: 2 ops around 10µs — the windowed p50 must reflect only
	// these, not the cumulative distribution.
	add(c, 2)
	for i := 0; i < 2; i++ {
		h.Observe(10000)
	}
	if err := rec.record(t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}

	type line struct {
		TS       string             `json:"ts"`
		UnixMS   int64              `json:"unix_ms"`
		Counters map[string]float64 `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
		Hists    []HistSummary      `json:"hists"`
	}
	var lines []line
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad JSONL line: %v\n%s", err, sc.Text())
		}
		lines = append(lines, l)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}

	if lines[0].Counters["ops"] != 5 || lines[1].Counters["ops"] != 2 {
		t.Errorf("counter deltas %g, %g want 5, 2", lines[0].Counters["ops"], lines[1].Counters["ops"])
	}
	if lines[0].Gauges["mem"] != 1024 {
		t.Errorf("gauge level %g", lines[0].Gauges["mem"])
	}
	if len(lines[0].Hists) != 1 || lines[0].Hists[0].Count != 5 {
		t.Fatalf("window 1 hist %+v", lines[0].Hists)
	}
	if len(lines[1].Hists) != 1 || lines[1].Hists[0].Count != 2 {
		t.Fatalf("window 2 hist %+v", lines[1].Hists)
	}
	// Windowed p50: window 1 ~100, window 2 ~10000 (within bucket error).
	if p := lines[0].Hists[0].P50; p < 95 || p > 105 {
		t.Errorf("window 1 p50 = %d, want ~100", p)
	}
	if p := lines[1].Hists[0].P50; p < 9500 || p > 10500 {
		t.Errorf("window 2 p50 = %d, want ~10000", p)
	}
	if lines[0].UnixMS >= lines[1].UnixMS {
		t.Error("timestamps not increasing")
	}
}

// TestRecorderQuietWindow: a window with no activity still emits a
// valid line (gauges only — zero-count histograms are elided).
func TestRecorderQuietWindow(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lat", "").Observe(5)
	var buf bytes.Buffer
	rec := NewRecorder(r, &buf) // baseline includes the observation
	if err := rec.record(time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	var l struct {
		Hists []HistSummary `json:"hists"`
	}
	if err := json.Unmarshal(buf.Bytes(), &l); err != nil {
		t.Fatal(err)
	}
	if len(l.Hists) != 0 {
		t.Fatalf("quiet window emitted hists: %+v", l.Hists)
	}
}

func TestRecorderRunLoop(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ticks")
	var buf syncBuffer
	rec := NewRecorder(r, &buf)
	stop := make(chan struct{})
	done := make(chan struct{})
	go rec.Run(5*time.Millisecond, stop, done)
	add(c, 1)
	time.Sleep(25 * time.Millisecond)
	close(stop)
	<-done
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	n := 0
	for sc.Scan() {
		if !json.Valid(sc.Bytes()) {
			t.Fatalf("invalid line: %s", sc.Text())
		}
		n++
	}
	// At least the final flush line; timers under CI load may skip ticks.
	if n < 1 {
		t.Fatalf("recorder wrote %d lines, want >= 1", n)
	}
}

// syncBuffer serializes writes from the recorder goroutine against the
// test's final read.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}
