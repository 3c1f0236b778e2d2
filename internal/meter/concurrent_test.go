package meter

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestTotalBusyAtomicAcrossGoroutines checks the meter-level busy total:
// it must equal the exact sum of every AddBusy from every goroutine (the
// cached atomic cannot drop or double count), and agree with the
// per-component snapshot sum.
func TestTotalBusyAtomicAcrossGoroutines(t *testing.T) {
	m := NewMeter()
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		comp := m.Component(fmt.Sprintf("c%d", g%3)) // share some components
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				comp.AddBusy(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	want := workers * perWorker * time.Microsecond
	if got := m.TotalBusy(); got != want {
		t.Fatalf("TotalBusy = %v, want %v", got, want)
	}
	var sum time.Duration
	for _, s := range m.Snapshot() {
		sum += s.Busy
	}
	if sum != want {
		t.Fatalf("snapshot sum = %v, want %v", sum, want)
	}
	m.Reset()
	if got := m.TotalBusy(); got != 0 {
		t.Fatalf("TotalBusy after Reset = %v", got)
	}
}

// TestBurnerLockFreeUnderContention hammers one Burner from several
// goroutines; with the race detector on, this verifies the lock-free
// design.
func TestBurnerLockFreeUnderContention(t *testing.T) {
	b := NewBurner()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b.Burn(64)
			}
		}()
	}
	wg.Wait()
	if b.Sink() == 0 {
		t.Fatal("sink never updated")
	}
}
