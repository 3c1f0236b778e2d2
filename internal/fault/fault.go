// Package fault is the deterministic fault-injection layer of the cost
// laboratory. The paper's cost argument (§5) treats the cache tier as
// *optional* on the request path: a service must keep serving through
// cache-node loss by falling through to storage, and the price of that
// resilience — retries, timeouts, degraded hit ratios, over-provisioning —
// is part of the bill. This package makes those faults injectable and
// *metered*, so the stalls and failures a chaos schedule provokes show up
// in the cost report like any other CPU.
//
// An Injector owns a set of named fault targets ("nodes"). Each node has a
// composable Rule (error rate, injected stall work or sleep, slow-start
// after recovery) plus a kill switch (the node refuses every call until
// revived). Conns wrapped with Injector.WrapWorker consult their node
// before every call; the linked cache tier consults the same decisions
// through Decide.
//
// Every injected fault is counted once, on the request's lane
// (meter.PathStats.Faults); its work is burned on the meter's "fault"
// component, and a sampled request carries a "fault" span naming the
// outcome. The injector keeps no tallies of its own.
//
// Determinism: every decision is a pure function of (seed, node name,
// decision-stream identity, per-stream call sequence number). The default
// stream reproduces the classic single-threaded schedule exactly. A
// concurrent driver gives each worker its own stream (WrapWorker, or
// Decide with a worker index): each stream has a private atomic sequence
// counter and a worker-specific salt, so a fixed seed reproduces the
// identical per-worker fault schedule regardless of how the scheduler
// interleaves workers. The kill and slow-start switches remain
// node-global, as they model node state, not caller state.
package fault

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"cachecost/internal/meter"
	"cachecost/internal/rpc"
	"cachecost/internal/trace"
)

// Injected fault errors. They model transport-level failures, so retry
// layers treat them as retryable; application-level errors are never
// injected.
var (
	// ErrInjected is a transient per-call failure (connection reset,
	// overload shed) injected by a node's ErrorRate rule.
	ErrInjected = errors.New("fault: injected transient error")
	// ErrNodeDown is returned for every call to a killed node.
	ErrNodeDown = errors.New("fault: node is down")
)

// Rule is the steady-state fault behaviour of one node. The zero Rule
// injects nothing.
type Rule struct {
	// ErrorRate is the probability in [0,1] that a call fails with
	// ErrInjected after any stall work has been charged.
	ErrorRate float64
	// StallWork is metered CPU work (Burner units) injected per stalled
	// call — added latency standing in for queueing, GC pauses or a slow
	// replica. Charged to the "fault" component so stalls appear in
	// the cost report.
	StallWork int
	// StallRate is the probability in [0,1] that a call pays StallWork
	// and StallSleep: 1 stalls every call, 0 none.
	StallRate float64
	// StallSleep is wall-clock occupancy injected per stalled call, on
	// top of any StallWork: the caller sleeps this long, modeling a slow
	// disk or network path whose latency is real time, not CPU. Unlike
	// StallWork it charges nothing to the meter — it is pure latency, the
	// quantity the flight recorder's stage attribution observes.
	StallSleep time.Duration
	// SlowStartCalls is how many calls after Revive pay extra work
	// each — a cold cache, connection re-establishment, page-in: four
	// times StallWork, or 8192 units when StallWork is zero.
	SlowStartCalls int
}

func (r Rule) slowStartWork() int {
	if r.StallWork > 0 {
		return 4 * r.StallWork
	}
	return 8192
}

// stream is one deterministic decision stream against a node: a private
// sequence counter plus a salt folded into every draw. The default stream
// has salt 0, making its draws byte-identical to the historical
// single-threaded injector.
type stream struct {
	salt uint64
	seq  atomic.Uint64
}

// nodeState holds one fault target. The switches (rule, killed,
// slow-start budget) are node-global and atomic; decision sequencing
// lives in per-stream state so concurrent workers never contend.
type nodeState struct {
	nameHash uint64
	rule     atomic.Pointer[Rule]
	killed   atomic.Bool
	slowLeft atomic.Int64

	def stream // the default (worker-less) decision stream

	wmu     sync.RWMutex
	workers map[int]*stream
}

func (n *nodeState) stream(worker int) *stream {
	if worker < 0 {
		return &n.def
	}
	n.wmu.RLock()
	st, ok := n.workers[worker]
	n.wmu.RUnlock()
	if ok {
		return st
	}
	n.wmu.Lock()
	defer n.wmu.Unlock()
	if st, ok = n.workers[worker]; ok {
		return st
	}
	// Worker indices are small integers, so a full-avalanche mix keeps
	// neighbouring workers' fault schedules statistically independent.
	st = &stream{salt: splitmix64(uint64(worker) + 0x8000000000000000)}
	n.workers[worker] = st
	return st
}

// Injector injects faults into named nodes. All methods are safe for
// concurrent use. Decisions on distinct streams are lock-free after the
// first call; the injector-level lock is only taken to create nodes.
type Injector struct {
	seed   uint64
	comp   *meter.Component
	burner *meter.Burner

	mu    sync.RWMutex
	nodes map[string]*nodeState
}

// New returns an Injector whose decisions derive from seed. Injected
// work is burned on m's "fault" component; a nil m disables metering
// (faults still fire, but stalls burn nothing).
func New(seed int64, m *meter.Meter) *Injector {
	in := &Injector{seed: uint64(seed), nodes: make(map[string]*nodeState)}
	if m != nil {
		in.comp = m.Component("fault")
		in.burner = meter.NewBurner()
	}
	return in
}

func (in *Injector) node(name string) *nodeState {
	in.mu.RLock()
	n, ok := in.nodes[name]
	in.mu.RUnlock()
	if ok {
		return n
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if n, ok = in.nodes[name]; ok {
		return n
	}
	n = &nodeState{nameHash: hashName(name), workers: make(map[int]*stream)}
	n.rule.Store(&Rule{})
	in.nodes[name] = n
	return n
}

// SetRule installs the steady-state rule for node, replacing any earlier
// rule. The node's kill switch is unaffected.
func (in *Injector) SetRule(node string, r Rule) {
	in.node(node).rule.Store(&r)
}

// Kill flips the node's kill switch: every call fails with ErrNodeDown
// until Revive.
func (in *Injector) Kill(node string) {
	in.node(node).killed.Store(true)
}

// Revive clears the kill switch and arms the node's slow-start window.
func (in *Injector) Revive(node string) {
	n := in.node(node)
	if n.killed.CompareAndSwap(true, false) {
		n.slowLeft.Store(int64(n.rule.Load().SlowStartCalls))
	}
}

// splitmix64 is the decision hash: a full-avalanche mix of the seed, the
// node identity and the call sequence number.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// unit maps a decision draw to [0,1).
func unit(x uint64) float64 { return float64(x>>11) / float64(1<<53) }

// Decide takes the next fault decision for node on an explicit decision
// stream — worker >= 0 selects that worker's private stream
// (deterministic under concurrency), worker < 0 the default stream — and
// returns the injected error, or nil to let the call proceed. Stall and
// slow-start work is burned and metered before the verdict, as a lap of
// the request's lane. A decision that injects anything — a kill reject,
// stall or slow-start work, a transient error — is counted on the lane
// and recorded as a "fault" span on a sampled request; clean decisions
// leave no trace. The decision-draw sequence does not depend on the
// context, so fixed-seed fault schedules are unchanged by tracing.
func (in *Injector) Decide(node string, worker int, sc trace.SpanContext) error {
	n := in.node(node)
	st := n.stream(worker)
	seq := st.seq.Add(1)
	if n.killed.Load() {
		in.recordFault(sc, node, "down", 0, 0)
		return ErrNodeDown
	}
	rule := *n.rule.Load()
	draw := splitmix64(in.seed ^ n.nameHash ^ st.salt ^ seq)
	var work int
	slow := false
	for {
		left := n.slowLeft.Load()
		if left <= 0 {
			break
		}
		if n.slowLeft.CompareAndSwap(left, left-1) {
			work += rule.slowStartWork()
			slow = true
			break
		}
	}
	// Independent sub-draws for the stall and error verdicts, both
	// derived from the one deterministic draw.
	stallDraw := unit(draw)
	errDraw := unit(splitmix64(draw))
	stalled := false
	var sleep time.Duration
	if stallDraw < rule.StallRate {
		work += rule.StallWork
		sleep = rule.StallSleep
		stalled = true
	}
	var err error
	if rule.ErrorRate > 0 && errDraw < rule.ErrorRate {
		err = ErrInjected
	}
	if err == nil && work == 0 && sleep == 0 {
		return nil // clean decision: no span, no burn
	}
	outcome := "stall"
	switch {
	case err != nil:
		outcome = "error"
	case slow && !stalled:
		outcome = "slow-start"
	}
	in.recordFault(sc, node, outcome, work, sleep)
	return err
}

// recordFault counts the fault on the request's lane, burns the injected
// work on the fault component, sleeps any wall-clock stall with the lane
// parked and, when the request is sampled, wraps both in a "fault" span
// annotated with the outcome.
func (in *Injector) recordFault(sc trace.SpanContext, node, outcome string, work int, sleep time.Duration) {
	sc.Lane().CountFault()
	act, _ := trace.Start(sc, "fault", node)
	if act.Recording() {
		act.Annotate("fault.outcome", outcome)
		if work > 0 {
			act.AnnotateInt("fault.work", int64(work))
		}
		if sleep > 0 {
			act.AnnotateInt("fault.sleep_ns", int64(sleep))
		}
	}
	sc.Lane().Burn(in.comp, in.burner, work)
	if sleep > 0 {
		sc.Lane().Park()
		time.Sleep(sleep)
		sc.Lane().Unpark()
	}
	act.End()
}

// Conn is an rpc.Conn filtered through an Injector node.
type Conn struct {
	node   string
	worker int
	in     *Injector
	next   rpc.Conn
}

// WrapWorker returns conn filtered through the named node using worker's
// private decision stream, for concurrent drivers that need per-worker
// deterministic fault schedules.
func (in *Injector) WrapWorker(node string, worker int, conn rpc.Conn) *Conn {
	return &Conn{node: node, worker: worker, in: in, next: conn}
}

// Call implements rpc.Conn: the node decides first; only clean calls
// reach the underlying connection.
func (c *Conn) Call(method string, req []byte) ([]byte, error) {
	return c.CallCtx(trace.SpanContext{}, method, req)
}

// CallCtx implements rpc.TraceConn: injected faults appear as spans on
// the request trace, and clean calls propagate the span context onward.
func (c *Conn) CallCtx(sc trace.SpanContext, method string, req []byte) ([]byte, error) {
	if err := c.in.Decide(c.node, c.worker, sc); err != nil {
		return nil, err
	}
	return rpc.CallTraced(c.next, sc, method, req)
}

// Close implements rpc.Conn.
func (c *Conn) Close() error { return c.next.Close() }
