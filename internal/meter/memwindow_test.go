package meter

import (
	"testing"
	"time"
)

// A budget set once — the universal construction pattern — must price
// exactly that budget, however late in the window it was established.
func TestMemAvgStaticLevelIsExact(t *testing.T) {
	m := NewMeter()
	time.Sleep(5 * time.Millisecond)
	c := m.Component("cache")
	c.SetMemBytes(3 << 30)
	time.Sleep(2 * time.Millisecond)
	for _, s := range m.Snapshot() {
		if s.MemAvgBytes != 3<<30 {
			t.Fatalf("static level must price exactly: avg=%d want %d", s.MemAvgBytes, 3<<30)
		}
	}
	// And it stays exact across a window reset (level survives Reset).
	m.Reset()
	time.Sleep(2 * time.Millisecond)
	if got := m.Snapshot()[0].MemAvgBytes; got != 3<<30 {
		t.Fatalf("after Reset, unchanged level must price exactly: avg=%d", got)
	}
}

// A mid-window resize bills the byte-seconds actually held: shrinking
// halfway through the window must land the average strictly between the
// two levels, and the current-level getter must still report the live
// budget.
func TestMemAvgTracksMidWindowResize(t *testing.T) {
	m := NewMeter()
	c := m.Component("cache")
	c.SetMemBytes(1000 << 20)
	m.Reset()
	time.Sleep(30 * time.Millisecond)
	c.SetMemBytes(200 << 20)
	time.Sleep(30 * time.Millisecond)
	snap := m.Snapshot()[0]
	if snap.MemBytes != 200<<20 {
		t.Fatalf("level getter must report the live budget: %d", snap.MemBytes)
	}
	lo, hi := int64(250<<20), int64(950<<20) // generous timing slop around the 600 MB midpoint
	if snap.MemAvgBytes <= lo || snap.MemAvgBytes >= hi {
		t.Fatalf("avg %dMB not between resized levels (want (%d, %d) MB)",
			snap.MemAvgBytes>>20, lo>>20, hi>>20)
	}
	if snap.MemAvgBytes <= snap.MemBytes {
		t.Fatalf("avg %d must exceed the shrunken live level %d", snap.MemAvgBytes, snap.MemBytes)
	}

	// The report prices the average, not the final level.
	r := BuildReport(m, GCP)
	var line Line
	for _, l := range r.Lines {
		if l.Component == "cache" {
			line = l
		}
	}
	if want := GCP.MemCost(snap.MemAvgBytes); line.MemCost < want*0.5 || line.MemCost > want*1.5 {
		t.Fatalf("MemCost %v not near priced average %v", line.MemCost, want)
	}
	if line.MemCost <= GCP.MemCost(200<<20) {
		t.Fatalf("report must bill more than the final level after a late shrink")
	}

	// Reset discards the old window's byte-seconds: the new window prices
	// the surviving level exactly again.
	m.Reset()
	time.Sleep(2 * time.Millisecond)
	if got := m.Snapshot()[0].MemAvgBytes; got != 200<<20 {
		t.Fatalf("post-Reset avg = %d, want exact level %d", got, 200<<20)
	}
}
