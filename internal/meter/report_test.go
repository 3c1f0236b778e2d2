package meter

import (
	"strings"
	"testing"
	"time"
)

// reportFixture builds a meter with a deterministic usage shape: the
// hierarchy app / app.cache / storage.sql with known busy-time ratios,
// memory provisions and op counts. Elapsed is wall-clock and therefore
// not deterministic, so assertions below check pricing *relationships*
// (ratios, sums, prefix rollups), never absolute core counts.
func reportFixture() (*Meter, Report) {
	m := NewMeter()
	app := m.Component("app")
	app.AddBusy(40 * time.Millisecond)
	app.AddOps(1000)
	cache := m.Component("app.cache")
	cache.AddBusy(10 * time.Millisecond)
	cache.SetMemBytes(2 << 30)
	cache.AddOps(900)
	sql := m.Component("storage.sql")
	sql.AddBusy(50 * time.Millisecond)
	sql.SetMemBytes(1 << 30)
	sql.AddOps(1800)
	m.AddRequests(1000)
	return m, BuildReport(m, GCP)
}

func lineFor(t *testing.T, r Report, name string) Line {
	t.Helper()
	for _, l := range r.Lines {
		if l.Component == name {
			return l
		}
	}
	t.Fatalf("report has no line %q (have %+v)", name, r.Lines)
	return Line{}
}

func TestBuildReportPricing(t *testing.T) {
	_, r := reportFixture()
	if len(r.Lines) != 3 {
		t.Fatalf("lines = %d, want 3", len(r.Lines))
	}
	// Memory pricing is elapsed-invariant and exact.
	almost(t, "app.cache MemCost", lineFor(t, r, "app.cache").MemCost, 4)
	almost(t, "storage.sql MemCost", lineFor(t, r, "storage.sql").MemCost, 2)
	almost(t, "app MemCost", lineFor(t, r, "app").MemCost, 0)
	// CPU pricing must equal cores times the book price, line by line,
	// and cores must preserve the 40/10/50 busy-time ratios.
	app, sql := lineFor(t, r, "app"), lineFor(t, r, "storage.sql")
	for _, l := range r.Lines {
		almost(t, l.Component+" CPUCost", l.CPUCost, GCP.CPUCost(l.Cores))
		almost(t, l.Component+" Total", l.total(), l.CPUCost+l.MemCost)
	}
	if app.Cores <= 0 {
		t.Fatalf("app cores = %v, want > 0", app.Cores)
	}
	almost(t, "sql/app core ratio", sql.Cores/app.Cores, 50.0/40.0)
	// Totals are the column sums.
	var cpu, mem float64
	for _, l := range r.Lines {
		cpu += l.CPUCost
		mem += l.MemCost
	}
	almost(t, "CPUCost", r.CPUCost, cpu)
	almost(t, "MemCost", r.MemCost, mem)
	almost(t, "TotalCost", r.TotalCost, cpu+mem)
	almost(t, "MemFraction", r.MemFraction(), mem/(cpu+mem))
	if r.Requests != 1000 {
		t.Errorf("Requests = %d", r.Requests)
	}
	if r.qps() <= 0 {
		t.Errorf("QPS = %v, want > 0", r.qps())
	}
	// Ops survive into lines.
	if got := lineFor(t, r, "storage.sql").Ops; got != 1800 {
		t.Errorf("storage.sql ops = %d", got)
	}
}

// Component rollups follow the dotted hierarchy: a prefix matches itself
// and its children, never a sibling that merely shares leading bytes.
func TestComponentPrefixRollups(t *testing.T) {
	_, r := reportFixture()
	almost(t, `ComponentCost("")`, r.ComponentCost(""), r.TotalCost)
	almost(t, `ComponentCost(app)`, r.ComponentCost("app"),
		lineFor(t, r, "app").total()+lineFor(t, r, "app.cache").total())
	almost(t, `ComponentCost(app.cache)`, r.ComponentCost("app.cache"), lineFor(t, r, "app.cache").total())
	almost(t, `ComponentCost(storage)`, r.ComponentCost("storage"), lineFor(t, r, "storage.sql").total())
	almost(t, `ComponentCost(ap)`, r.ComponentCost("ap"), 0)
	almost(t, `ComponentCores("")`, r.ComponentCores(""),
		lineFor(t, r, "app").Cores+lineFor(t, r, "app.cache").Cores+lineFor(t, r, "storage.sql").Cores)
}

// CostPerMillionRequests: CPU cost per request is throughput-invariant,
// while the memory term divides monthly rent by QPS — and LaneQPS, when
// set, replaces the aggregate QPS in the memory term only.
func TestCostPerMillionRequestsLaneQPS(t *testing.T) {
	_, r := reportFixture()
	const secondsPerMonth = 30 * 24 * 3600
	qps := r.qps()
	want := (r.CPUCost/(qps*secondsPerMonth) + r.MemCost/(qps*secondsPerMonth)) * 1e6
	almost(t, "CostPerMReq", r.CostPerMillionRequests(), want)

	r.LaneQPS = qps / 4 // one lane sustains a quarter of the aggregate
	wantLane := (r.CPUCost/(qps*secondsPerMonth) + r.MemCost/(r.LaneQPS*secondsPerMonth)) * 1e6
	almost(t, "CostPerMReq with LaneQPS", r.CostPerMillionRequests(), wantLane)
	if r.CostPerMillionRequests() <= want {
		t.Errorf("LaneQPS < QPS must raise the memory share")
	}

	empty := Report{}
	almost(t, "empty report", empty.CostPerMillionRequests(), 0)
	almost(t, "empty MemFraction", empty.MemFraction(), 0)
}

func TestReportString(t *testing.T) {
	_, r := reportFixture()
	s := r.String()
	for _, want := range []string{"component", "app.cache", "storage.sql", "TOTAL", "cost per 1M requests"} {
		if !strings.Contains(s, want) {
			t.Errorf("report rendering missing %q:\n%s", want, s)
		}
	}
}
