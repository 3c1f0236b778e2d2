package fault

import (
	"errors"
	"sync"
	"testing"
	"time"

	"cachecost/internal/meter"
	"cachecost/internal/rpc"
	"cachecost/internal/trace"
)

// decide takes the next decision on node's default stream, outside any
// request.
func decide(in *Injector, node string) error {
	return in.Decide(node, -1, trace.SpanContext{})
}

// laneOf returns a span context carrying a fresh lane on m, and a func
// that closes the lane and returns m's path counts.
func laneOf(m *meter.Meter) (trace.SpanContext, func() meter.PathStats) {
	l := meter.OpenLane(m.Component("app"))
	return trace.SpanContext{}.WithLane(l), func() meter.PathStats {
		l.Close()
		return m.Path()
	}
}

// TestZeroRuleInjectsNothing: the zero Rule, and a Rule whose stall
// work is set at a zero StallRate (the chaos figure's fault-free cell),
// inject nothing.
func TestZeroRuleInjectsNothing(t *testing.T) {
	for _, rule := range []Rule{{}, {StallWork: 2048, StallSleep: time.Millisecond, SlowStartCalls: 50}} {
		m := meter.NewMeter()
		in := New(1, m)
		in.SetRule("n", rule)
		sc, done := laneOf(m)
		for i := 0; i < 1000; i++ {
			if err := in.Decide("n", -1, sc); err != nil {
				t.Fatalf("%+v injected %v at call %d", rule, err, i)
			}
		}
		if got := in.node("n").def.seq.Load(); got != 1000 {
			t.Fatalf("%+v: draws = %d, want 1000", rule, got)
		}
		if p := done(); p.Faults != 0 {
			t.Fatalf("%+v: Path.Faults = %d, want 0", rule, p.Faults)
		}
		if ops := m.Component("fault").Ops(); ops != 0 {
			t.Fatalf("%+v: fault ops = %d, want 0", rule, ops)
		}
	}
}

func TestErrorRateIsApproximatelyHonored(t *testing.T) {
	in := New(7, nil)
	in.SetRule("n", Rule{ErrorRate: 0.1})
	errs := 0
	const calls = 10000
	for i := 0; i < calls; i++ {
		if err := decide(in, "n"); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("unexpected error kind %v", err)
			}
			errs++
		}
	}
	if errs < calls/20 || errs > calls/5 {
		t.Fatalf("10%% error rate produced %d/%d errors", errs, calls)
	}
}

// TestDeterministicUnderFixedSeed replays one schedule twice: every
// verdict, and which decisions stalled (a stall burns one op on the
// fault component), must agree.
func TestDeterministicUnderFixedSeed(t *testing.T) {
	type step struct {
		node     string
		err      error
		faultOps int64
	}
	run := func() []step {
		m := meter.NewMeter()
		in := New(42, m)
		in.SetRule("a", Rule{ErrorRate: 0.3, StallWork: 100, StallRate: 0.5})
		in.SetRule("b", Rule{ErrorRate: 0.05})
		fc := m.Component("fault")
		var out []step
		for i := 0; i < 500; i++ {
			for _, n := range []string{"a", "b"} {
				err := decide(in, n)
				out = append(out, step{n, err, fc.Ops()})
			}
			if i == 200 {
				in.Kill("a")
			}
			if i == 300 {
				in.Revive("a")
			}
		}
		return out
	}
	o1, o2 := run(), run()
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, o1[i], o2[i])
		}
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	decisions := func(seed int64) (errs int) {
		in := New(seed, nil)
		in.SetRule("n", Rule{ErrorRate: 0.5})
		for i := 0; i < 200; i++ {
			if decide(in, "n") != nil {
				errs++
			}
		}
		return errs
	}
	// Same seed agrees; different seeds should disagree on the exact
	// count with overwhelming probability.
	if decisions(1) != decisions(1) {
		t.Fatal("same seed disagreed")
	}
	a, b := decisions(1), decisions(2)
	in1, in2 := New(1, nil), New(2, nil)
	in1.SetRule("n", Rule{ErrorRate: 0.5})
	in2.SetRule("n", Rule{ErrorRate: 0.5})
	same := true
	for i := 0; i < 200; i++ {
		if (decide(in1, "n") == nil) != (decide(in2, "n") == nil) {
			same = false
		}
	}
	if same && a == b {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestKillReviveAndSlowStart(t *testing.T) {
	m := meter.NewMeter()
	in := New(3, m)
	in.SetRule("n", Rule{SlowStartCalls: 5})
	sc, done := laneOf(m)
	if err := in.Decide("n", -1, sc); err != nil {
		t.Fatalf("healthy node: %v", err)
	}
	in.Kill("n")
	for i := 0; i < 3; i++ {
		if err := in.Decide("n", -1, sc); !errors.Is(err, ErrNodeDown) {
			t.Fatalf("killed node returned %v", err)
		}
	}
	in.Revive("n")
	for i := 0; i < 10; i++ {
		if err := in.Decide("n", -1, sc); err != nil {
			t.Fatalf("revived node errored: %v", err)
		}
	}
	// Three kill rejects and five slow-start calls are faults; only the
	// slow-start calls burn work.
	if p := done(); p.Faults != 8 {
		t.Fatalf("Path.Faults = %d, want 8", p.Faults)
	}
	if ops := m.Component("fault").Ops(); ops != 5 {
		t.Fatalf("slow-start burns = %d, want 5", ops)
	}
}

func TestStallWorkIsMetered(t *testing.T) {
	m := meter.NewMeter()
	in := New(5, m)
	in.SetRule("n", Rule{StallWork: 50000, StallRate: 1})
	for i := 0; i < 20; i++ {
		decide(in, "n")
	}
	comp := m.Component("fault")
	if comp.Busy() <= 0 {
		t.Fatal("stall work should accrue busy time on the fault component")
	}
	if comp.Ops() != 20 {
		t.Fatalf("ops = %d, want 20", comp.Ops())
	}
}

// echoServer builds an rpc.Server answering "echo" with its request.
func echoServer() *rpc.Server {
	s := rpc.NewServer(nil, nil, rpc.CostModel{})
	s.Handle("echo", func(req []byte) ([]byte, error) {
		return append([]byte(nil), req...), nil
	})
	return s
}

// TestWrappedConnInjectsAndPassesThrough: injected errors stop the call
// and are counted once on the request's lane; clean calls reach the
// wrapped connection.
func TestWrappedConnInjectsAndPassesThrough(t *testing.T) {
	m := meter.NewMeter()
	in := New(11, m)
	in.SetRule("cache0", Rule{ErrorRate: 0.5})
	conn := in.WrapWorker("cache0", -1, rpc.NewDirect(echoServer()))
	sc, done := laneOf(m)
	ok, failed := 0, 0
	for i := 0; i < 400; i++ {
		resp, err := conn.CallCtx(sc, "echo", []byte("hi"))
		if err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("unexpected error %v", err)
			}
			failed++
			continue
		}
		if string(resp) != "hi" {
			t.Fatalf("resp = %q", resp)
		}
		ok++
	}
	if ok == 0 || failed == 0 {
		t.Fatalf("want a mix of outcomes, got ok=%d failed=%d", ok, failed)
	}
	if got := done().Faults; got != int64(failed) {
		t.Fatalf("Path.Faults = %d, want %d", got, failed)
	}
}

// TestScheduleAppliesEventsInOpOrder: events given out of order apply at
// their op, and same-op events apply in the order given.
func TestScheduleAppliesEventsInOpOrder(t *testing.T) {
	in := New(1, nil)
	s := NewSchedule([]Event{
		{AtOp: 8, Node: "n", Action: ActRevive},
		{AtOp: 5, Node: "n", Action: ActKill},
		{AtOp: 10, Node: "n", Action: ActKill},
		{AtOp: 10, Node: "n", Action: ActRevive},
	})
	var timeline []bool // down per op
	for op := 0; op < 12; op++ {
		s.Step(in)
		err := decide(in, "n")
		if err != nil && !errors.Is(err, ErrNodeDown) {
			t.Fatalf("op %d: unexpected verdict %v", op, err)
		}
		timeline = append(timeline, err != nil)
	}
	for op, down := range timeline {
		wantDown := op >= 5 && op < 8
		if down != wantDown {
			t.Fatalf("op %d: down=%v want %v (timeline %v)", op, down, wantDown, timeline)
		}
	}
	if s.pos != len(s.events) {
		t.Fatal("schedule should be exhausted")
	}
}

// TestInjectorIsSafeForConcurrentUse races decisions on the shared
// default stream and on per-worker streams created on first use; no draw
// may be lost.
func TestInjectorIsSafeForConcurrentUse(t *testing.T) {
	in := New(9, meter.NewMeter())
	in.SetRule("n", Rule{ErrorRate: 0.2, StallWork: 10, StallRate: 1})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				decide(in, "n")
				in.Decide("n", w, trace.SpanContext{})
			}
		}(w)
	}
	wg.Wait()
	n := in.node("n")
	if got := n.def.seq.Load(); got != 1600 {
		t.Fatalf("default-stream draws = %d, want 1600", got)
	}
	for w := 0; w < 8; w++ {
		if got := n.stream(w).seq.Load(); got != 200 {
			t.Fatalf("worker %d draws = %d, want 200", w, got)
		}
	}
}
