// Chaos suite: drives the real architectures through the fault layer and
// asserts the paper's resilience story — the service absorbs cache-tier
// faults as degradations (never client-visible errors), pays for them in
// the cost report, and does so identically under a fixed seed.
package fault_test

import (
	"math"
	"testing"

	"cachecost/internal/core"
	"cachecost/internal/workload"
)

func chaosOpts() core.FigOptions {
	return core.FigOptions{Ops: 900, Warmup: 300, Keys: 400, Tables: 50, Seed: 7, AppReplicas: 3}
}

func chaosWorkload(o core.FigOptions) workload.SyntheticConfig {
	return workload.SyntheticConfig{Keys: o.Keys, Alpha: 1.2, ReadRatio: 0.9, ValueSize: 256, Seed: o.Seed}
}

func runCell(t *testing.T, cc core.ChaosConfig) *core.RunResult {
	t.Helper()
	return runCellAt(t, chaosOpts(), cc)
}

func runCellAt(t *testing.T, o core.FigOptions, cc core.ChaosConfig) *core.RunResult {
	t.Helper()
	res, err := o.ChaosCell(cc, chaosWorkload(o))
	if err != nil {
		t.Fatalf("chaos cell %+v: client-visible failure: %v", cc, err)
	}
	return res
}

// TestFallThroughAbsorbsFaults is the headline acceptance check: a 10%
// cache-node error rate plus a kill/revive episode produces zero request
// failures and a nonzero degradation counter, for both cache architectures.
// A kill-only cell shows the kill landed: at a zero error rate every
// fault but a kill reject burns stall or slow-start work, so faults
// beyond the fault component's ops are kill rejects; the rejected calls
// degrade to storage loads, and the hit ratio falls below that of a
// fault-free cell on the same seed.
func TestFallThroughAbsorbsFaults(t *testing.T) {
	for _, arch := range []core.Arch{core.Remote, core.Linked} {
		cc := core.ChaosConfig{Arch: arch, ErrorRate: 0.10, KillWindow: true}
		res := runCell(t, cc) // runCell fails the test on any request error
		if res.Path.Degraded == 0 {
			t.Errorf("%s at 10%% faults: degradation counter stayed zero", arch)
		}
		if res.HitRatio <= 0 || res.HitRatio >= 1 {
			t.Errorf("%s: hit ratio %v outside (0,1)", arch, res.HitRatio)
		}
		if arch == core.Remote && res.Path.Retries == 0 {
			t.Errorf("Remote behind the retry layer recorded zero retries at 10%% faults")
		}
		kill := runCell(t, core.ChaosConfig{Arch: arch, KillWindow: true})
		if rejects := kill.Path.Faults - faultOps(kill); rejects <= 0 {
			t.Errorf("%s: kill window rejected no call (faults %d, fault ops %d)",
				arch, kill.Path.Faults, faultOps(kill))
		}
		if kill.Path.Degraded == 0 {
			t.Errorf("%s: kill window recorded no degradation", arch)
		}
		if free := runCell(t, core.ChaosConfig{Arch: arch}); kill.HitRatio >= free.HitRatio {
			t.Errorf("%s: kill-window hit ratio %v not below fault-free %v", arch, kill.HitRatio, free.HitRatio)
		}
	}
}

// TestDegradationIsMonotonic sweeps the fault rate and checks the two
// degradation signals move the right way: hit ratio falls and the
// degradation count rises as the cache gets less reliable, and the cost
// at total cache loss exceeds the fault-free cost.
func TestDegradationIsMonotonic(t *testing.T) {
	rates := []float64{0, 0.3, 1.0}
	for _, arch := range []core.Arch{core.Remote, core.Linked} {
		var hits []float64
		var degraded []int64
		var costs []float64
		for _, rate := range rates {
			res := runCell(t, core.ChaosConfig{Arch: arch, ErrorRate: rate})
			hits = append(hits, res.HitRatio)
			degraded = append(degraded, res.Path.Degraded)
			costs = append(costs, res.CostPerMReq)
		}
		for i := 1; i < len(rates); i++ {
			if hits[i] >= hits[i-1] {
				t.Errorf("%s: hit ratio did not fall with fault rate: %v at rates %v", arch, hits, rates)
			}
			if degraded[i] <= degraded[i-1] {
				t.Errorf("%s: degradations did not rise with fault rate: %v at rates %v", arch, degraded, rates)
			}
			// Cost is measured from real busy time, so allow timing noise
			// within the sweep but require a clear overall rise.
			if costs[i] < costs[i-1]*0.90 {
				t.Errorf("%s: cost fell with fault rate: %v at rates %v", arch, costs, rates)
			}
		}
		if costs[len(costs)-1] <= costs[0] {
			t.Errorf("%s: total cache loss not costlier than fault-free: %v", arch, costs)
		}
		if hits[len(hits)-1] != 0 {
			t.Errorf("%s: hit ratio at 100%% faults = %v, want 0", arch, hits[len(hits)-1])
		}
	}
}

// faultOps returns the ops the cell's fault component burned: one per
// decision that injected stall or slow-start work.
func faultOps(res *core.RunResult) int64 {
	for _, l := range res.Report.Lines {
		if l.Component == "fault" {
			return l.Ops
		}
	}
	return 0
}

// TestChaosCellIsDeterministic re-runs one chaos cell with a fixed seed
// and requires an identical fault schedule and identical op-level
// outcomes: every path count (faults, degradations, retries, hits) and
// the fault component's ops — everything except wall time.
func TestChaosCellIsDeterministic(t *testing.T) {
	o := chaosOpts()
	o.Seed = 99
	for _, arch := range []core.Arch{core.Remote, core.Linked} {
		cc := core.ChaosConfig{Arch: arch, ErrorRate: 0.25, KillWindow: true}
		a := runCellAt(t, o, cc)
		b := runCellAt(t, o, cc)
		if a.Path != b.Path {
			t.Errorf("%s: path counts diverged under fixed seed:\n%+v\n%+v", arch, a.Path, b.Path)
		}
		if fa, fb := faultOps(a), faultOps(b); fa != fb || fa == 0 {
			t.Errorf("%s: fault ops diverged (or none): %d vs %d", arch, fa, fb)
		}
		if a.HitRatio != b.HitRatio {
			t.Errorf("%s: hit ratio diverged: %v vs %v", arch, a.HitRatio, b.HitRatio)
		}
	}
}

// TestMeterTotalsBalance checks the cost report's books under chaos: line
// items sum to the totals, injected fault work is visible as its own
// component, and the window's demotions are counted on its path.
func TestMeterTotalsBalance(t *testing.T) {
	res := runCell(t, core.ChaosConfig{Arch: core.Remote, ErrorRate: 0.5, KillWindow: true})
	rep := res.Report
	var cpu, mem float64
	for _, l := range rep.Lines {
		cpu += l.CPUCost
		mem += l.MemCost
	}
	if math.Abs(cpu-rep.CPUCost) > 1e-9 || math.Abs(mem-rep.MemCost) > 1e-9 {
		t.Errorf("line sums (%v, %v) != report totals (%v, %v)", cpu, mem, rep.CPUCost, rep.MemCost)
	}
	if math.Abs((rep.CPUCost+rep.MemCost)-rep.TotalCost) > 1e-9 {
		t.Errorf("CPUCost+MemCost = %v, TotalCost = %v", rep.CPUCost+rep.MemCost, rep.TotalCost)
	}
	if got := rep.ComponentCost("fault"); got <= 0 {
		t.Errorf("injected stalls charged $%v to component 'fault', want > 0", got)
	}
	if res.Path.Degraded == 0 {
		t.Error("Path.Degraded = 0 at 50% cache faults")
	}
	if rep.Requests != int64(res.Ops) {
		t.Errorf("report requests = %d, ops = %d", rep.Requests, res.Ops)
	}
}
