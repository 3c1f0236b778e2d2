package core

import (
	"runtime"
	"sync/atomic"
	"time"

	"cachecost/internal/workload"
)

// Open-loop driving. Closed loop models a fixed worker pool: a lane's
// next op starts when its last one finishes, so a slow service quietly
// slows its own load generator — the coordinated-omission blind spot.
// Open loop models the paper's "millions of users" instead: a
// deterministic schedule fixes each op's *intended* arrival before the
// run starts, a dispatcher releases ops at those instants into bounded
// per-lane queues, and latency is measured from the intended arrival. A
// stalled server is then charged for every request that queued behind
// the stall, and a saturated server faces the full offered rate instead
// of an automatically throttled one.

// DeadlineWorker is a ServiceWorker that accepts a per-request SLO
// deadline, propagated down the request path (and across transports via
// the trace context) to the front door, which expires a request that
// arrives past it.
type DeadlineWorker interface {
	ReadDeadline(key string, deadline time.Time) ([]byte, error)
	WriteDeadline(key string, value []byte, deadline time.Time) error
}

// IntendedWorker is a ServiceWorker that accepts each op's intended
// arrival instant (the open-loop schedule slot) before the op runs, so
// the flight recorder can attribute schedule slip to its queue stage and
// measure latency on the intended clock. The driver calls SetIntended
// from the lane's own goroutine only, before every op; the zero time
// (closed loop) clears it.
type IntendedWorker interface {
	SetIntended(t time.Time)
}

// defaultLaneDepth bounds a lane's client-side queue when the config
// does not say otherwise.
const defaultLaneDepth = 1024

// pace is the open-loop dispatcher: it releases metered op i at
// t0 + sched.Offset(i) into lane i%P's queue, firing release (OnOp) at
// that instant, and reports how many ops it had to drop. A full queue
// drops the op at its arrival instant (client-side shedding): an
// open-loop client with a bounded buffer, not an unbounded one — so a
// dead service yields bounded memory and a finite run, and the drop is
// itself a datum (ClientShed). A lane failure ends the run, so dispatch
// stops at the first one rather than pacing out the rest of the schedule.
// The queues are closed on return.
func pace(sched *workload.Schedule, slo time.Duration, dealt [][]workload.Op, queues []chan chunk, release func(), failed *atomic.Bool) (shed int64) {
	par := len(queues)
	t0 := time.Now()
	for i := 0; i < sched.N(); i++ {
		target := t0.Add(sched.Offset(i))
		for rem := time.Until(target); rem > 0 && !failed.Load(); rem = time.Until(target) {
			// Sleep the bulk, spin the tail: timer wake-ups overshoot by
			// tens of microseconds, which at high offered rates would
			// systematically delay every dispatch. Naps are bounded so a
			// lane failure is noticed within one.
			if rem > 200*time.Microsecond {
				time.Sleep(min(rem-100*time.Microsecond, 10*time.Millisecond))
			} else {
				runtime.Gosched()
			}
		}
		if failed.Load() {
			break
		}
		release()
		c := chunk{ops: dealt[i%par][i/par : i/par+1], intended: target}
		if slo > 0 {
			c.deadline = target.Add(slo)
		}
		select {
		case queues[i%par] <- c:
		default:
			shed++
		}
	}
	for _, q := range queues {
		close(q)
	}
	return shed
}
