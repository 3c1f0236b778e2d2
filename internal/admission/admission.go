// Package admission implements SLO-aware admission control for the
// cachecost servers. Under open-loop load the offered rate does not care
// how the service is doing; past saturation an unprotected server builds
// an unbounded backlog, every request's latency diverges, and — because
// this laboratory prices CPU — the meter charges for work whose results
// arrive too late to matter. The admission gate bounds that backlog: a
// request either gets one of a fixed number of inflight slots, waits in a
// bounded FIFO queue, or is shed immediately; queued requests that
// outlive their deadline are abandoned without ever consuming handler
// CPU.
//
// The package is split in two layers. Queue is a purely deterministic
// state machine — every transition takes an explicit clock value — so its
// invariants (capacity is never exceeded, an accepted op is never lost,
// offered == admitted + shed + expired + waiting) are directly fuzzable.
// Gate wraps a Queue with goroutine-blocking semantics and real timers
// for use on the serving path.
package admission

import (
	"fmt"
	"sync"
	"time"
)

// Decision is the outcome of offering one request to the queue.
type Decision int

// The decisions.
const (
	// admit grants an inflight slot immediately.
	admit Decision = iota
	// enqueue parks the request in the bounded wait queue; it will be
	// granted by a later done or abandoned by its deadline.
	enqueue
	// shed rejects the request because the wait queue is full. Shedding
	// at arrival is the whole point: the server refuses work it cannot
	// serve within the SLO instead of queueing it to die.
	shed
	// expire rejects the request because its deadline had already passed
	// on arrival.
	expire
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case admit:
		return "admit"
	case enqueue:
		return "enqueue"
	case shed:
		return "shed"
	case expire:
		return "expire"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Stats are the queue's conservation counters. At every instant
// Offered == Admitted + Shed + Expired + Waiting: no request is ever
// unaccounted for.
type Stats struct {
	// Offered counts every request presented to the gate.
	Offered int64
	// Admitted counts requests that received an inflight slot (at once
	// or after waiting).
	Admitted int64
	// Shed counts requests rejected because the wait queue was full.
	Shed int64
	// Expired counts requests whose deadline passed before they were
	// granted a slot (on arrival or while waiting).
	Expired int64
	// Waiting is the current wait-queue occupancy.
	Waiting int64
	// Inflight is the current number of granted slots.
	Inflight int64
}

// Queue is the deterministic admission state machine: maxInflight slots
// and a FIFO wait queue of at most depth entries. It is not synchronized;
// Gate provides the concurrent wrapper. All methods take the clock as an
// argument so tests and the fuzzer fully control time.
type Queue struct {
	maxInflight int
	depth       int

	inflight int
	waiting  []uint64 // queued request ids, FIFO
	nextID   uint64

	offered, admitted, shed, expired int64
}

// newQueue builds a queue with the given slot count and wait depth.
// maxInflight must be positive; depth may be zero (shed the instant all
// slots are busy).
func newQueue(maxInflight, depth int) *Queue {
	if maxInflight <= 0 {
		panic("admission: maxInflight must be positive")
	}
	if depth < 0 {
		panic("admission: negative queue depth")
	}
	return &Queue{maxInflight: maxInflight, depth: depth}
}

// offer presents one request with the given deadline (unix nanoseconds,
// 0 = none) at clock value now. The returned id identifies the request
// in later grant results and abandon calls; it is meaningful only for
// admit and enqueue.
func (q *Queue) offer(deadline int64, now int64) (Decision, uint64) {
	q.offered++
	if deadline != 0 && now > deadline {
		q.expired++
		return expire, 0
	}
	if q.inflight < q.maxInflight {
		q.inflight++
		q.admitted++
		q.nextID++
		return admit, q.nextID
	}
	if len(q.waiting) >= q.depth {
		q.shed++
		return shed, 0
	}
	q.nextID++
	q.waiting = append(q.waiting, q.nextID)
	return enqueue, q.nextID
}

// done releases the slot held by an admitted request and grants it to
// the first waiter. It returns the granted id and true, or 0 and false
// when the queue is empty.
func (q *Queue) done() (uint64, bool) {
	if q.inflight <= 0 {
		panic("admission: Done without an admitted request")
	}
	q.inflight--
	if len(q.waiting) == 0 {
		return 0, false
	}
	id := q.waiting[0]
	// Slide rather than reslice so the backing array is reused.
	copy(q.waiting, q.waiting[1:])
	q.waiting = q.waiting[:len(q.waiting)-1]
	q.inflight++
	q.admitted++
	return id, true
}

// abandon removes a waiting request whose deadline passed while queued,
// freeing its queue capacity immediately. It reports whether the id was
// found still waiting; false means the request was granted concurrently
// and the caller must treat it as admitted.
func (q *Queue) abandon(id uint64) bool {
	for i := range q.waiting {
		if q.waiting[i] == id {
			q.waiting = append(q.waiting[:i], q.waiting[i+1:]...)
			q.expired++
			return true
		}
	}
	return false
}

// stats snapshots the conservation counters.
func (q *Queue) stats() Stats {
	return Stats{
		Offered:  q.offered,
		Admitted: q.admitted,
		Shed:     q.shed,
		Expired:  q.expired,
		Waiting:  int64(len(q.waiting)),
		Inflight: int64(q.inflight),
	}
}

// Outcome is the result of Gate.Enter.
type Outcome int

// The gate outcomes.
const (
	// Admitted: the request holds a slot; the caller must invoke the
	// release function exactly once when its work finishes.
	Admitted Outcome = iota
	// ShedQueueFull: rejected at arrival, wait queue full.
	ShedQueueFull
	// DeadlineExpired: the deadline passed before a slot was granted.
	DeadlineExpired
)

// Gate is the concurrent admission gate: a Queue plus per-waiter wake
// channels and deadline timers. All methods are safe for concurrent use.
// A nil Gate admits everything (the unconfigured, zero-overhead default).
type Gate struct {
	mu      sync.Mutex
	q       *Queue
	wake    map[uint64]chan struct{}
	granted map[uint64]bool
	now     func() time.Time
}

// NewGate builds a gate. now may be nil for the wall clock; tests inject
// a fake.
func NewGate(maxInflight, depth int, now func() time.Time) *Gate {
	if now == nil {
		now = time.Now
	}
	return &Gate{
		q:       newQueue(maxInflight, depth),
		wake:    make(map[uint64]chan struct{}),
		granted: make(map[uint64]bool),
		now:     now,
	}
}

// Enter offers one request with the given deadline (zero time = none).
// It blocks while the request waits in the queue, up to the deadline.
// When the outcome is Admitted the returned release function must be
// called exactly once; otherwise it is nil. A nil gate admits with a
// no-op release.
func (g *Gate) Enter(deadline time.Time) (Outcome, func()) {
	if g == nil {
		return Admitted, func() {}
	}
	var dl int64
	if !deadline.IsZero() {
		dl = deadline.UnixNano()
	}
	g.mu.Lock()
	dec, id := g.q.offer(dl, g.now().UnixNano())
	switch dec {
	case admit:
		g.mu.Unlock()
		return Admitted, g.release
	case shed:
		g.mu.Unlock()
		return ShedQueueFull, nil
	case expire:
		g.mu.Unlock()
		return DeadlineExpired, nil
	}
	ch := make(chan struct{})
	g.wake[id] = ch
	g.mu.Unlock()

	var timerC <-chan time.Time
	if dl != 0 {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		timerC = timer.C
	}
	select {
	case <-ch:
		g.mu.Lock()
		delete(g.granted, id)
		g.mu.Unlock()
		return Admitted, g.release
	case <-timerC:
		g.mu.Lock()
		if g.granted[id] {
			// The grant raced the timer: the slot is ours. Taking it (and
			// letting the handler observe the expired deadline downstream)
			// keeps the accounting single-owner.
			delete(g.granted, id)
			g.mu.Unlock()
			return Admitted, g.release
		}
		g.q.abandon(id)
		delete(g.wake, id)
		g.mu.Unlock()
		return DeadlineExpired, nil
	}
}

// release frees a slot and wakes the next live waiter.
func (g *Gate) release() {
	g.mu.Lock()
	id, ok := g.q.done()
	if ok {
		if ch, live := g.wake[id]; live {
			delete(g.wake, id)
			g.granted[id] = true
			close(ch)
		}
	}
	g.mu.Unlock()
}

// Stats snapshots the gate's conservation counters. Nil-safe.
func (g *Gate) Stats() Stats {
	if g == nil {
		return Stats{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.q.stats()
}
