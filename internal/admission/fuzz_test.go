package admission

import (
	"testing"
)

// FuzzAdmissionQueue drives the deterministic admission state machine
// through arbitrary interleavings of offers (with and without deadlines),
// completions, abandons and clock advances, and checks the safety
// invariants after every step:
//
//   - capacity is never exceeded: inflight <= maxInflight and
//     waiting <= depth at all times;
//   - an accepted op is never lost: every enqueue id is eventually
//     granted or abandoned, never silently dropped;
//   - conservation: offered == admitted + shed + expired + waiting.
func FuzzAdmissionQueue(f *testing.F) {
	f.Add(1, 0, []byte{0, 0, 0, 1, 1})
	f.Add(2, 3, []byte{0, 0, 0, 0, 0, 1, 2, 1, 1})
	f.Add(1, 4, []byte{0x40, 0x41, 0x42, 3, 3, 1, 1, 2})
	f.Add(4, 4, []byte{0, 0x81, 0, 0x82, 1, 3, 2, 1, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, maxInflight, depth int, program []byte) {
		if maxInflight <= 0 || maxInflight > 8 || depth < 0 || depth > 8 {
			t.Skip()
		}
		q := newQueue(maxInflight, depth)
		now := int64(0)
		inflight := 0
		// waiting tracks live (un-abandoned) queued ids in FIFO order.
		var waiting []uint64

		check := func(step int, op string) {
			s := q.stats()
			if s.Inflight != int64(inflight) {
				t.Fatalf("step %d (%s): queue inflight %d, model %d", step, op, s.Inflight, inflight)
			}
			if s.Inflight > int64(maxInflight) {
				t.Fatalf("step %d (%s): inflight %d exceeds cap %d", step, op, s.Inflight, maxInflight)
			}
			if s.Waiting != int64(len(waiting)) {
				t.Fatalf("step %d (%s): queue waiting %d, model %d", step, op, s.Waiting, len(waiting))
			}
			if s.Waiting > int64(depth) {
				t.Fatalf("step %d (%s): waiting %d exceeds depth %d", step, op, s.Waiting, depth)
			}
			if s.Offered != s.Admitted+s.Shed+s.Expired+s.Waiting {
				t.Fatalf("step %d (%s): conservation violated: %+v", step, op, s)
			}
		}

		for step, b := range program {
			switch b & 0x03 {
			case 0: // offer; high bits select the relative deadline
				var dl int64
				switch (b >> 2) & 0x03 {
				case 1:
					dl = now + int64(b>>4) + 1 // future deadline
				case 2:
					dl = now - int64(b>>4) - 1 // already expired
					if dl == 0 {
						dl = -1
					}
				}
				dec, id := q.offer(dl, now)
				switch dec {
				case admit:
					if inflight >= maxInflight {
						t.Fatalf("step %d: admit with %d/%d inflight", step, inflight, maxInflight)
					}
					inflight++
				case enqueue:
					if len(waiting) >= depth {
						t.Fatalf("step %d: enqueue with %d/%d waiting", step, len(waiting), depth)
					}
					waiting = append(waiting, id)
				case shed:
					if len(waiting) < depth {
						t.Fatalf("step %d: shed with queue space (%d/%d)", step, len(waiting), depth)
					}
				case expire:
					if dl == 0 || now <= dl {
						t.Fatalf("step %d: expired a live deadline (dl=%d now=%d)", step, dl, now)
					}
				}
				check(step, "offer")
			case 1: // done
				if inflight == 0 {
					continue // Done without an admitted op would rightly panic
				}
				id, granted := q.done()
				inflight--
				if granted {
					if len(waiting) == 0 {
						t.Fatalf("step %d: granted %d with empty model queue", step, id)
					}
					if waiting[0] != id {
						t.Fatalf("step %d: granted %d, FIFO head is %d", step, id, waiting[0])
					}
					waiting = waiting[1:]
					inflight++
				} else if len(waiting) != 0 {
					t.Fatalf("step %d: no grant with %d live waiters", step, len(waiting))
				}
				check(step, "done")
			case 2: // abandon the waiter selected by the high bits
				if len(waiting) == 0 {
					continue
				}
				i := int(b>>2) % len(waiting)
				id := waiting[i]
				if !q.abandon(id) {
					t.Fatalf("step %d: Abandon(%d) failed for a live waiter", step, id)
				}
				waiting = append(waiting[:i], waiting[i+1:]...)
				check(step, "abandon")
			case 3: // advance the clock
				now += int64(b >> 2)
				check(step, "tick")
			}
		}

		// Drain: every accepted op must surface. Complete all inflight work;
		// each Done may grant a waiter, which we then complete too.
		for inflight > 0 {
			id, granted := q.done()
			inflight--
			if granted {
				if len(waiting) == 0 || waiting[0] != id {
					t.Fatalf("drain: granted %d, model head %v", id, waiting)
				}
				waiting = waiting[1:]
				inflight++
			}
			check(len(program), "drain")
		}
		if len(waiting) != 0 {
			t.Fatalf("drain left %d accepted ops stranded", len(waiting))
		}
		s := q.stats()
		if s.Offered != s.Admitted+s.Shed+s.Expired {
			t.Fatalf("final conservation violated: %+v", s)
		}
	})
}
