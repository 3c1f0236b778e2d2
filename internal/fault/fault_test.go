package fault

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"cachecost/internal/meter"
	"cachecost/internal/rpc"
)

func TestZeroRuleInjectsNothing(t *testing.T) {
	in := New(1, Options{})
	for i := 0; i < 1000; i++ {
		if err := in.Decide("n"); err != nil {
			t.Fatalf("zero rule injected %v at call %d", err, i)
		}
	}
	st := in.node("n").nodeStats()
	if st.Calls != 1000 || st.InjectedErrors != 0 || st.Stalls != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestErrorRateIsApproximatelyHonored(t *testing.T) {
	in := New(7, Options{})
	in.SetRule("n", Rule{ErrorRate: 0.1})
	errs := 0
	const calls = 10000
	for i := 0; i < calls; i++ {
		if err := in.Decide("n"); err != nil {
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

func TestDeterministicUnderFixedSeed(t *testing.T) {
	run := func() ([]error, string) {
		in := New(42, Options{})
		in.SetRule("a", Rule{ErrorRate: 0.3, StallWork: 100, StallRate: 0.5})
		in.SetRule("b", Rule{ErrorRate: 0.05})
		var out []error
		for i := 0; i < 500; i++ {
			out = append(out, in.Decide("a"), in.Decide("b"))
			if i == 200 {
				in.Kill("a")
			}
			if i == 300 {
				in.Revive("a")
			}
		}
		return out, fmt.Sprintf("%+v %+v", in.node("a").nodeStats(), in.node("b").nodeStats())
	}
	o1, t1 := run()
	o2, t2 := run()
	if t1 != t2 {
		t.Fatalf("fault schedules diverged:\n%s\n%s", t1, t2)
	}
	for i := range o1 {
		if !errors.Is(o2[i], o1[i]) && (o1[i] != nil || o2[i] != nil) {
			t.Fatalf("decision %d diverged: %v vs %v", i, o1[i], o2[i])
		}
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	decisions := func(seed int64) (errs int) {
		in := New(seed, Options{})
		in.SetRule("n", Rule{ErrorRate: 0.5})
		for i := 0; i < 200; i++ {
			if in.Decide("n") != nil {
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
	in1, in2 := New(1, Options{}), New(2, Options{})
	in1.SetRule("n", Rule{ErrorRate: 0.5})
	in2.SetRule("n", Rule{ErrorRate: 0.5})
	same := true
	for i := 0; i < 200; i++ {
		if (in1.Decide("n") == nil) != (in2.Decide("n") == nil) {
			same = false
		}
	}
	if same && a == b {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestKillReviveAndSlowStart(t *testing.T) {
	in := New(3, Options{})
	in.SetRule("n", Rule{SlowStartCalls: 5, SlowStartWork: 100})
	if err := in.Decide("n"); err != nil {
		t.Fatalf("healthy node: %v", err)
	}
	in.Kill("n")
	if !in.down("n") {
		t.Fatal("killed node should report down")
	}
	for i := 0; i < 3; i++ {
		if err := in.Decide("n"); !errors.Is(err, ErrNodeDown) {
			t.Fatalf("killed node returned %v", err)
		}
	}
	in.Revive("n")
	if in.down("n") {
		t.Fatal("revived node should be up")
	}
	for i := 0; i < 10; i++ {
		if err := in.Decide("n"); err != nil {
			t.Fatalf("revived node errored: %v", err)
		}
	}
	st := in.node("n").nodeStats()
	if st.SlowStarts != 5 {
		t.Fatalf("SlowStarts = %d, want 5", st.SlowStarts)
	}
	if st.DownRejects != 3 {
		t.Fatalf("DownRejects = %d, want 3", st.DownRejects)
	}
	if st.WorkInjected != 500 {
		t.Fatalf("WorkInjected = %d, want 500", st.WorkInjected)
	}
}

func TestBlackholeAndHeal(t *testing.T) {
	in := New(3, Options{TimeoutWork: 7})
	in.Blackhole("n", true)
	if !in.down("n") {
		t.Fatal("blackholed node should report down")
	}
	if err := in.Decide("n"); !errors.Is(err, ErrBlackhole) {
		t.Fatalf("blackholed call returned %v", err)
	}
	in.Blackhole("n", false)
	if err := in.Decide("n"); err != nil {
		t.Fatalf("healed node errored: %v", err)
	}
	st := in.node("n").nodeStats()
	if st.Blackholed != 1 || st.WorkInjected != 7 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStallWorkIsMetered(t *testing.T) {
	m := meter.NewMeter()
	in := New(5, Options{Meter: m, Component: "chaos"})
	in.SetRule("n", Rule{StallWork: 50000})
	for i := 0; i < 20; i++ {
		in.Decide("n")
	}
	comp := m.Component("chaos")
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

func TestWrappedConnInjectsAndPassesThrough(t *testing.T) {
	in := New(11, Options{})
	in.SetRule("cache0", Rule{ErrorRate: 0.5})
	conn := in.WrapWorker("cache0", -1, rpc.NewDirect(echoServer()))
	ok, failed := 0, 0
	for i := 0; i < 400; i++ {
		resp, err := conn.Call("echo", []byte("hi"))
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
	if got := in.node("cache0").nodeStats().InjectedErrors; got != int64(failed) {
		t.Fatalf("stats errors = %d, want %d", got, failed)
	}
}

func TestWrappedConnDownImplementsPoolInterface(t *testing.T) {
	in := New(1, Options{})
	conn := in.WrapWorker("n", -1, rpc.NewDirect(echoServer()))
	var d rpc.Downer = conn
	if d.Down() {
		t.Fatal("fresh node should be up")
	}
	in.Kill("n")
	if !d.Down() {
		t.Fatal("killed node should be down through the pool interface")
	}
}

func TestScheduleAppliesEventsInOpOrder(t *testing.T) {
	in := New(1, Options{})
	s := NewSchedule([]Event{
		{AtOp: 5, Node: "n", Action: ActKill},
		{AtOp: 2, Node: "n", Action: actSetRule, Rule: Rule{ErrorRate: 1}},
		{AtOp: 8, Node: "n", Action: ActRevive},
	})
	var timeline []bool // down per op
	for op := 0; op < 12; op++ {
		s.Step(in)
		timeline = append(timeline, in.down("n"))
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
	// The actSetRule at op 2 must be live.
	if err := in.Decide("n"); !errors.Is(err, ErrInjected) {
		t.Fatalf("rule with ErrorRate=1 should inject, got %v", err)
	}
}

func TestInjectorIsSafeForConcurrentUse(t *testing.T) {
	in := New(9, Options{Meter: meter.NewMeter()})
	in.SetRule("n", Rule{ErrorRate: 0.2, StallWork: 10})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				in.Decide("n")
				in.down("n")
			}
		}()
	}
	wg.Wait()
	if got := in.node("n").nodeStats().Calls; got != 1600 {
		t.Fatalf("calls = %d, want 1600", got)
	}
}
