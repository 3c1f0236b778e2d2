package meter

import (
	"sync/atomic"
	"time"
)

// busyClock selects the time source busy-time measurements read. The
// default is the wall clock: for a single-threaded driver on real CPU
// work, wall time of a non-blocking section IS its CPU time, and it is
// what the historical (and test) semantics are defined against.
//
// In thread-CPU mode, readings come from the calling OS thread's CPU
// clock instead. That makes busy time robust to oversubscription: a
// goroutine that is preempted — or parked on a mutex — while it holds a
// stopwatch open accrues nothing, instead of silently absorbing the
// runtime of whichever goroutines the scheduler ran in its place. The
// concurrent experiment driver enables this mode and pins each worker
// goroutine to an OS thread, so deltas are always taken against the
// same thread's clock.
type busyClock struct {
	threadCPU atomic.Bool
	// fake replaces the time source in this package's tests, which count
	// and script clock reads; it is set before the meter is used.
	fake func() int64
}

// now returns nanoseconds on the selected time source.
func (c *busyClock) now() int64 {
	if c.fake != nil {
		return c.fake()
	}
	if c.threadCPU.Load() {
		return threadCPUNanos()
	}
	return wallNanos()
}

// wallBase anchors wall readings so they use the monotonic clock. Lanes
// time flight stages on it whatever the busy clock is.
var wallBase = time.Now()

func wallNanos() int64 { return int64(time.Since(wallBase)) }
