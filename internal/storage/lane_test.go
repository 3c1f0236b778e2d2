package storage

import (
	"runtime"
	"testing"
	"time"

	"cachecost/internal/meter"
	"cachecost/internal/storage/plan"
)

// TestExecSectionStaysOnTheBusyClock is the regression test for the
// executor window being timed with time.Now while the kv busy it
// subtracted came from the meter's busy clock. On the thread-CPU clock
// (what the drivers and the benchmark meter with) wall time that is not
// CPU — a sleep standing in for preemption or a stalled fsync — must not
// be billed to storage.exec.
func TestExecSectionStaysOnTheBusyClock(t *testing.T) {
	m := meter.NewMeter()
	m.SetThreadCPUClock(true)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	n := NewNode(Config{Replicas: 1, Meter: m})

	lane := meter.OpenLane(n.rpcComp)
	_, err := n.exec(lane, func() (*plan.ResultSet, error) {
		time.Sleep(20 * time.Millisecond)
		return nil, nil
	})
	lane.Close()
	if err != nil {
		t.Fatal(err)
	}
	if busy := n.execComp.Busy(); busy >= 5*time.Millisecond {
		t.Fatalf("storage.exec busy = %v: a 20ms sleep was billed as executor CPU", busy)
	}
	if n.execComp.Ops() != 1 {
		t.Fatalf("storage.exec ops = %d, want 1", n.execComp.Ops())
	}
}
