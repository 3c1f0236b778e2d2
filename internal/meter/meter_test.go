package meter

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestComponentAccumulates(t *testing.T) {
	m := NewMeter()
	c := m.Component("app")
	c.AddBusy(10 * time.Millisecond)
	c.AddBusy(5 * time.Millisecond)
	if got, want := c.Busy(), 15*time.Millisecond; got != want {
		t.Fatalf("Busy() = %v, want %v", got, want)
	}
	c.AddOps(3)
	if got := c.Ops(); got != 3 {
		t.Fatalf("Ops() = %d, want 3", got)
	}
}

func TestComponentIdentity(t *testing.T) {
	m := NewMeter()
	a := m.Component("storage")
	b := m.Component("storage")
	if a != b {
		t.Fatal("Component should return the same handle for the same name")
	}
	a.AddBusy(time.Second)
	if b.Busy() != time.Second {
		t.Fatal("handles for the same name must share counters")
	}
}

func TestNegativeBusyIgnored(t *testing.T) {
	m := NewMeter()
	c := m.Component("app")
	c.AddBusy(-time.Second)
	if c.Busy() != 0 {
		t.Fatalf("negative AddBusy should be ignored, got %v", c.Busy())
	}
}

func TestMemAccounting(t *testing.T) {
	m := NewMeter()
	c := m.Component("cache")
	c.SetMemBytes(1 << 30)
	if got, want := c.MemBytes(), int64(1<<30); got != want {
		t.Fatalf("MemBytes() = %d, want %d", got, want)
	}
	c.SetMemBytes(42)
	if got := c.MemBytes(); got != 42 {
		t.Fatalf("SetMemBytes should replace, got %d", got)
	}
}

func TestStopwatchAttributesTime(t *testing.T) {
	m := NewMeter()
	c := m.Component("app")
	sw := c.Start()
	time.Sleep(20 * time.Millisecond)
	busy := sw.Stop()
	if busy < 15*time.Millisecond {
		t.Fatalf("Stop should have attributed ~20ms, got %v", busy)
	}
	if c.Busy() != busy || c.Ops() != 1 {
		t.Fatalf("Stop should credit its %v and one op to the component, got %v and %d", busy, c.Busy(), c.Ops())
	}
}

func TestMeterReset(t *testing.T) {
	m := NewMeter()
	c := m.Component("app")
	c.AddBusy(time.Second)
	c.SetMemBytes(100)
	m.AddRequests(7)
	m.Reset()
	if c.Busy() != 0 || m.Requests() != 0 {
		t.Fatal("Reset should zero flow counters")
	}
	if c.MemBytes() != 100 {
		t.Fatal("Reset must preserve provisioned memory (a level, not a flow)")
	}
	if m.Elapsed() > time.Second {
		t.Fatal("Reset should restart the elapsed clock")
	}
}

func TestSnapshotSorted(t *testing.T) {
	m := NewMeter()
	m.Component("zeta").AddBusy(1)
	m.Component("alpha").AddBusy(2)
	m.Component("mid").AddBusy(3)
	snaps := m.Snapshot()
	if len(snaps) != 3 {
		t.Fatalf("want 3 snapshots, got %d", len(snaps))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i-1].Name >= snaps[i].Name {
			t.Fatalf("snapshots not sorted: %q before %q", snaps[i-1].Name, snaps[i].Name)
		}
	}
}

func TestSnapshotCores(t *testing.T) {
	s := ComponentSnapshot{Busy: 5 * time.Second}
	if got := s.Cores(10 * time.Second); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("Cores = %v, want 0.5", got)
	}
	if got := s.Cores(0); got != 0 {
		t.Fatalf("Cores with zero elapsed should be 0, got %v", got)
	}
}

func TestConcurrentAttribution(t *testing.T) {
	m := NewMeter()
	c := m.Component("app")
	var wg sync.WaitGroup
	const workers = 16
	const perWorker = 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				c.AddBusy(time.Microsecond)
				c.AddOps(1)
			}
		}()
	}
	wg.Wait()
	if got, want := c.Busy(), time.Duration(workers*perWorker)*time.Microsecond; got != want {
		t.Fatalf("Busy() = %v, want %v", got, want)
	}
	if got := c.Ops(); got != workers*perWorker {
		t.Fatalf("Ops() = %d, want %d", got, workers*perWorker)
	}
}

func TestPriceBookDefaults(t *testing.T) {
	if GCP.CPUCoreMonth != 17.0 {
		t.Fatalf("CPU price = %v, want 17", GCP.CPUCoreMonth)
	}
	if GCP.MemGBMonth != 2.0 {
		t.Fatalf("memory price = %v, want 2", GCP.MemGBMonth)
	}
	if math.Abs(GCP.StorageGBMonth-0.02) > 1e-12 {
		t.Fatalf("storage price = %v, want 0.02", GCP.StorageGBMonth)
	}
}

func TestPriceBookMath(t *testing.T) {
	p := PriceBook{CPUCoreMonth: 10, MemGBMonth: 4, StorageGBMonth: 1}
	if got := p.CPUCost(2.5); got != 25 {
		t.Fatalf("CPUCost = %v, want 25", got)
	}
	if got := p.MemCost(1 << 30); got != 4 {
		t.Fatalf("MemCost = %v, want 4", got)
	}
	if got := p.StorageCost(3 << 30); got != 3 {
		t.Fatalf("StorageCost = %v, want 3", got)
	}
}

func TestPriceBookMemoryMultiplier(t *testing.T) {
	p := GCP.WithMemoryMultiplier(40)
	if p.MemGBMonth != 80 {
		t.Fatalf("40x multiplier: got %v, want 80", p.MemGBMonth)
	}
	if GCP.MemGBMonth != 2 {
		t.Fatal("WithMemoryMultiplier must not mutate the receiver")
	}
}

func TestBuildReport(t *testing.T) {
	m := NewMeter()
	app := m.Component("app")
	app.AddBusy(100 * time.Millisecond)
	app.SetMemBytes(2 << 30)
	st := m.Component("storage")
	st.AddBusy(300 * time.Millisecond)
	m.AddRequests(1000)
	time.Sleep(5 * time.Millisecond)

	r := BuildReport(m, GCP)
	if len(r.Lines) != 2 {
		t.Fatalf("want 2 lines, got %d", len(r.Lines))
	}
	if r.Requests != 1000 {
		t.Fatalf("Requests = %d", r.Requests)
	}
	if r.TotalCost <= 0 {
		t.Fatalf("TotalCost = %v, want > 0", r.TotalCost)
	}
	if math.Abs(r.TotalCost-(r.CPUCost+r.MemCost)) > 1e-9 {
		t.Fatal("TotalCost must equal CPUCost+MemCost")
	}
	// storage has 3x the busy time of app, so 3x the CPU cost.
	var appCPU, stCPU float64
	for _, l := range r.Lines {
		switch l.Component {
		case "app":
			appCPU = l.CPUCost
		case "storage":
			stCPU = l.CPUCost
		}
	}
	if ratio := stCPU / appCPU; math.Abs(ratio-3) > 0.25 {
		t.Fatalf("storage/app CPU cost ratio = %v, want ~3", ratio)
	}
}

func TestReportHierarchyRollup(t *testing.T) {
	m := NewMeter()
	m.Component("storage.sql").AddBusy(100 * time.Millisecond)
	m.Component("storage.kv").AddBusy(100 * time.Millisecond)
	m.Component("app").AddBusy(100 * time.Millisecond)
	time.Sleep(2 * time.Millisecond)
	r := BuildReport(m, GCP)

	stCores := r.ComponentCores("storage")
	appCores := r.ComponentCores("app")
	if stCores <= appCores {
		t.Fatalf("storage rollup (%v) should exceed app (%v)", stCores, appCores)
	}
}

func TestComponentCostPrefixBoundary(t *testing.T) {
	m := NewMeter()
	m.Component("store").AddBusy(50 * time.Millisecond)
	m.Component("storage").AddBusy(50 * time.Millisecond)
	time.Sleep(time.Millisecond)
	r := BuildReport(m, GCP)
	// "store" must not be counted under prefix "storage" or vice versa.
	if r.ComponentCost("storage") >= r.ComponentCost("storage")+r.ComponentCost("store") {
		t.Fatal("prefix matching leaked across component names")
	}
	if r.ComponentCores("stor") != 0 {
		t.Fatal(`"stor" is not a component and must roll up nothing`)
	}
}

func TestCostPerMillionRequests(t *testing.T) {
	m := NewMeter()
	m.Component("app").AddBusy(time.Millisecond)
	m.AddRequests(500)
	time.Sleep(2 * time.Millisecond)
	r := BuildReport(m, GCP)
	if r.CostPerMillionRequests() <= 0 {
		t.Fatal("cost per million requests should be positive")
	}
	empty := Report{}
	if empty.CostPerMillionRequests() != 0 {
		t.Fatal("empty report should normalize to 0")
	}
}

func TestReportStringContainsComponents(t *testing.T) {
	m := NewMeter()
	m.Component("app").AddBusy(time.Millisecond)
	r := BuildReport(m, GCP)
	s := r.String()
	if s == "" {
		t.Fatal("String() should render something")
	}
	for _, want := range []string{"app", "TOTAL", "cost per 1M requests"} {
		if !contains(s, want) {
			t.Fatalf("report string missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestBurnerScalesWithWork(t *testing.T) {
	b := NewBurner()
	timeIt := func(n, reps int) time.Duration {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			b.Burn(n)
		}
		return time.Since(t0)
	}
	small := timeIt(1<<10, 200)
	large := timeIt(1<<16, 200)
	if large <= small {
		t.Fatalf("64KB burn (%v) should take longer than 1KB burn (%v)", large, small)
	}
	if b.Sink() == 0 {
		t.Fatal("sink should have accumulated work")
	}
}

func TestBurnerZeroAndNegative(t *testing.T) {
	b := NewBurner()
	before := b.Sink()
	b.Burn(0)
	b.Burn(-5)
	if b.Sink() != before {
		t.Fatal("Burn(<=0) should be a no-op")
	}
}

func TestBurnerConcurrent(t *testing.T) {
	b := NewBurner()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				b.Burn(1 << 12)
			}
		}()
	}
	wg.Wait() // must not race (run with -race)
	if b.Sink() == 0 {
		t.Fatal("sink should be nonzero after concurrent burns")
	}
}
