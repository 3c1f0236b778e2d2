package meter

import (
	"time"

	"cachecost/internal/freelist"
)

// Lane is a request's one record. Its core is a lap clock partitioning the
// request's busy time among components: the time between two lane events
// belongs to exactly one component — the one the lane was in — and a
// parked lane belongs to none. The clock is read only when the component
// actually changes, so a request that crosses k component boundaries costs
// k+2 reads (open, close, one per crossing) however many sections it
// meters, and the laps of a request sum to its elapsed busy time by
// construction, whatever other goroutines attribute meanwhile.
//
// Beside its laps the lane carries what the rest of the request's record
// needs (record.go): the flight recorder's stage times and the request's
// path counts, which Close folds into the meter and Flags reads the
// outcome off. They are plain fields because a request never fans out
// across goroutines: a Lane is single-goroutine state riding the
// request's trace.SpanContext down the synchronous call path. Every
// method is nil-safe, so code handed a context without a lane (an
// unmetered deployment) pays one pointer test.
type Lane struct {
	m      *Meter
	cur    *Component // owner of the running lap; nil credits nobody
	t0     int64      // clock reading at the last lap boundary
	busy   int64      // laps credited so far, plus excluded leaf time
	parked bool

	armed  bool // a flight recorder is timing stages
	stages [NumStages]int64
	path   [numPathFields]int64
}

var lanePool = freelist.List[*Lane]{New: func() *Lane { return new(Lane) }}

// OpenLane takes a lane from the pool and starts its first lap in c, on
// the clock of c's meter; every component the lane later enters must
// belong to that meter. The opener must Close it.
func OpenLane(c *Component) *Lane {
	l := lanePool.Get()
	*l = Lane{m: c.m, cur: c}
	l.t0 = l.m.clk.now()
	return l
}

// lap ends the running lap at now, crediting it to the component the
// lane is leaving.
func (l *Lane) lap(now int64) {
	if d := now - l.t0; d > 0 {
		l.busy += d
		if l.cur != nil {
			l.cur.AddBusy(time.Duration(d))
		}
	}
	l.t0 = now
}

// Enter moves the lane into c and returns the component it left, for
// Leave. Entering the current component is free: no clock read, no
// credit.
func (l *Lane) Enter(c *Component) (prev *Component) {
	if l == nil {
		return nil
	}
	prev = l.cur
	if c != prev {
		l.lap(l.m.clk.now())
		l.cur = c
	}
	return prev
}

// Current returns the component the lane is in, for a caller that hands
// the lane to code that walks it on and wants to Leave back here after.
func (l *Lane) Current() *Component {
	if l == nil {
		return nil
	}
	return l.cur
}

// Leave moves the lane back into prev, the value Enter returned.
func (l *Lane) Leave(prev *Component) { l.Enter(prev) }

// EnterOp is Enter for a section that counts as one operation of c. A nil
// c (an unmetered deployment) leaves the lane where it is.
func (l *Lane) EnterOp(c *Component) {
	if c != nil {
		l.Enter(c)
		c.AddOps(1)
	}
}

// Burn does work units of calibrated CPU on b as one operation of c. With
// a lane the burn is a lap of it; code with no request context (l == nil)
// times the burn on c's clock itself. A nil c does nothing.
func (l *Lane) Burn(c *Component, b *Burner, work int) {
	switch {
	case c == nil || work <= 0:
	case l == nil:
		t0 := c.m.clk.now()
		b.Burn(work)
		c.AddBusy(time.Duration(c.m.clk.now() - t0))
		c.AddOps(1)
	default:
		prev := l.Enter(c)
		b.Burn(work)
		c.AddOps(1)
		l.Leave(prev)
	}
}

// Park ends the running lap before the goroutine blocks (a socket read, a
// queue slot, a contended lock, a sleep); Unpark starts the next lap when
// it resumes. The time in between is credited to nobody — on the
// thread-CPU clock that is the CPU the runtime and kernel spend putting
// the thread to sleep and waking it. Parking a finished request ends its
// last lap, so Busy is final before Close.
func (l *Lane) Park() {
	if l != nil && !l.parked {
		l.lap(l.m.clk.now())
		l.parked = true
	}
}

// Unpark resumes a parked lane in the component it was parked in.
func (l *Lane) Unpark() {
	if l != nil && l.parked {
		l.parked = false
		l.t0 = l.m.clk.now()
	}
}

// Exclude takes d out of the running lap: busy time a context-free leaf
// (one that meters itself with a Stopwatch) has already attributed to its
// own component since the lap began. Call it before the next lane event.
func (l *Lane) Exclude(d time.Duration) {
	if l != nil && d > 0 {
		l.t0 += int64(d)
		l.busy += int64(d)
	}
}

// Busy returns the busy time the lane's finished laps and excluded leaves
// add up to: the request's whole cost once the lane is parked or closed.
func (l *Lane) Busy() time.Duration {
	if l == nil {
		return 0
	}
	return time.Duration(l.busy)
}

// Close ends the last lap, folds the request's path counts into the
// meter, returns the lane to the pool and reports the request's elapsed
// busy time: every lap plus every excluded leaf, which is exactly what the
// request added to the meter. The lane must not be used afterwards.
func (l *Lane) Close() time.Duration {
	if l == nil {
		return 0
	}
	if !l.parked {
		l.lap(l.m.clk.now())
	}
	for i, n := range l.path {
		if n != 0 {
			l.m.path[i].Add(n)
		}
	}
	busy := l.busy
	lanePool.Put(l)
	return time.Duration(busy)
}
