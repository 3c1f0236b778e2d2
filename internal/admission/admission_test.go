package admission

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestQueueBasics(t *testing.T) {
	q := newQueue(2, 1)
	d1, id1 := q.offer(0, 0)
	d2, _ := q.offer(0, 0)
	if d1 != admit || d2 != admit {
		t.Fatalf("first two offers: %v/%v, want admit/admit", d1, d2)
	}
	if id1 == 0 {
		t.Fatal("admit returned zero id")
	}
	d3, id3 := q.offer(0, 0)
	if d3 != enqueue || id3 == 0 {
		t.Fatalf("third offer: %v/%d, want enqueue/nonzero", d3, id3)
	}
	if d4, _ := q.offer(0, 0); d4 != shed {
		t.Fatalf("fourth offer: %v, want shed (queue full)", d4)
	}
	if d5, _ := q.offer(10, 20); d5 != expire {
		t.Fatalf("expired-on-arrival offer: %v, want expire", d5)
	}
	gid, ok := q.done()
	if !ok || gid != id3 {
		t.Fatalf("Done granted %d/%v, want %d/true", gid, ok, id3)
	}
	s := q.stats()
	if s.Offered != 5 || s.Admitted != 3 || s.Shed != 1 || s.Expired != 1 || s.Waiting != 0 || s.Inflight != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestQueueAbandon(t *testing.T) {
	q := newQueue(1, 2)
	q.offer(0, 0) // takes the slot
	_, idA := q.offer(0, 0)
	_, idB := q.offer(0, 0)
	if !q.abandon(idA) {
		t.Fatal("Abandon(idA) = false")
	}
	if q.abandon(idA) {
		t.Fatal("double Abandon succeeded")
	}
	gid, ok := q.done() // must skip the abandoned head
	if !ok || gid != idB {
		t.Fatalf("Done granted %d/%v, want %d/true", gid, ok, idB)
	}
	s := q.stats()
	if s.Offered != 3 || s.Admitted != 2 || s.Expired != 1 || s.Waiting != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestNilGateAdmitsEverything(t *testing.T) {
	var g *Gate
	out, release := g.Enter(time.Time{})
	if out != Admitted || release == nil {
		t.Fatalf("nil gate: %v", out)
	}
	release()
	if s := g.Stats(); s != (Stats{}) {
		t.Fatalf("nil gate stats %+v", s)
	}
}

func TestGateShedsWhenFull(t *testing.T) {
	g := NewGate(1, 0, nil)
	out, release := g.Enter(time.Time{})
	if out != Admitted {
		t.Fatalf("first enter: %v", out)
	}
	if out2, _ := g.Enter(time.Time{}); out2 != ShedQueueFull {
		t.Fatalf("second enter with depth 0: %v", out2)
	}
	release()
	out3, release3 := g.Enter(time.Time{})
	if out3 != Admitted {
		t.Fatalf("enter after release: %v", out3)
	}
	release3()
	s := g.Stats()
	if s.Offered != 3 || s.Admitted != 2 || s.Shed != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestGateExpiredOnArrival(t *testing.T) {
	g := NewGate(1, 4, nil)
	out, release := g.Enter(time.Now().Add(-time.Millisecond))
	if out != DeadlineExpired || release != nil {
		t.Fatalf("stale deadline: %v", out)
	}
}

func TestGateQueuedWaiterExpires(t *testing.T) {
	g := NewGate(1, 4, nil)
	_, release := g.Enter(time.Time{}) // hold the only slot
	done := make(chan Outcome, 1)
	go func() {
		out, rel := g.Enter(time.Now().Add(20 * time.Millisecond))
		if rel != nil {
			rel()
		}
		done <- out
	}()
	out := <-done
	if out != DeadlineExpired {
		t.Fatalf("queued waiter: %v, want DeadlineExpired", out)
	}
	release()
	s := g.Stats()
	if s.Offered != 2 || s.Admitted != 1 || s.Expired != 1 || s.Waiting != 0 || s.Inflight != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestGateQueuedWaiterGranted(t *testing.T) {
	g := NewGate(1, 4, nil)
	_, release := g.Enter(time.Time{})
	done := make(chan Outcome, 1)
	go func() {
		out, rel := g.Enter(time.Now().Add(5 * time.Second))
		if rel != nil {
			rel()
		}
		done <- out
	}()
	// Let the waiter park, then free the slot.
	time.Sleep(10 * time.Millisecond)
	release()
	if out := <-done; out != Admitted {
		t.Fatalf("queued waiter: %v, want Admitted", out)
	}
	s := g.Stats()
	if s.Admitted != 2 || s.Inflight != 0 || s.Waiting != 0 {
		t.Fatalf("stats %+v", s)
	}
}

// TestGateConcurrentConservation hammers the gate from many goroutines
// and checks that every request is accounted for exactly once and the
// inflight bound held throughout.
func TestGateConcurrentConservation(t *testing.T) {
	const (
		workers = 8
		perW    = 200
		slots   = 3
		depth   = 4
	)
	g := NewGate(slots, depth, nil)
	var inflight, maxSeen atomic.Int64
	var admitted, shed, expired atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				var dl time.Time
				if (seed+i)%3 == 0 {
					dl = time.Now().Add(time.Duration((seed+i)%5) * time.Millisecond)
				}
				out, release := g.Enter(dl)
				switch out {
				case Admitted:
					cur := inflight.Add(1)
					for {
						m := maxSeen.Load()
						if cur <= m || maxSeen.CompareAndSwap(m, cur) {
							break
						}
					}
					if (seed+i)%2 == 0 {
						time.Sleep(time.Duration((seed+i)%3) * 100 * time.Microsecond)
					}
					inflight.Add(-1)
					release()
					admitted.Add(1)
				case ShedQueueFull:
					shed.Add(1)
				case DeadlineExpired:
					expired.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if m := maxSeen.Load(); m > slots {
		t.Fatalf("observed %d concurrent admissions, cap %d", m, slots)
	}
	total := admitted.Load() + shed.Load() + expired.Load()
	if total != workers*perW {
		t.Fatalf("accounted %d of %d requests", total, workers*perW)
	}
	s := g.Stats()
	if s.Offered != workers*perW {
		t.Fatalf("gate offered %d, want %d", s.Offered, workers*perW)
	}
	if s.Admitted != admitted.Load() || s.Shed != shed.Load() || s.Expired != expired.Load() {
		t.Fatalf("gate stats %+v vs local admitted=%d shed=%d expired=%d",
			s, admitted.Load(), shed.Load(), expired.Load())
	}
	if s.Inflight != 0 || s.Waiting != 0 {
		t.Fatalf("gate not drained: %+v", s)
	}
}
