package core

import (
	"fmt"

	"cachecost/internal/fault"
	"cachecost/internal/workload"
)

// ChaosConfig parameterizes one chaos cell: an architecture driven
// through a workload while the fault layer abuses its cache tier. The
// fault schedule derives from the figure's seed.
type ChaosConfig struct {
	// Arch selects the assembly (Base runs fault-free as the reference).
	Arch Arch
	// ErrorRate is the cache node's injected transient-error rate, and
	// the rate at which its calls stall for chaosStallWork: a zero-rate
	// cell injects nothing.
	ErrorRate float64
	// KillWindow, when true, kills the cache node for the middle fifth
	// of the metered window and revives it (with slow-start) after —
	// the cache-node-loss episode of the paper's availability argument.
	KillWindow bool
}

// chaosStallWork is the metered stall CPU (Burner units) a chaos cell's
// stalled cache call pays.
const chaosStallWork = 2048

// faultNodeFor maps an architecture to its cache-tier fault target.
func faultNodeFor(arch Arch) string {
	switch arch {
	case Remote:
		return CacheNode
	case Linked:
		return LinkedCacheNode
	default:
		return ""
	}
}

// ChaosCell assembles one architecture with the fault layer on its cache
// tier and drives it through the synthetic workload. All request failures
// propagate as errors — the acceptance bar is that with degradation in
// place there are none.
func (o FigOptions) ChaosCell(cc ChaosConfig, wcfg workload.SyntheticConfig) (*RunResult, error) {
	o.applyDefaults()
	c := o.synthCell(cc.Arch, wcfg)
	inj := fault.New(o.Seed, c.svc.Meter)
	node := faultNodeFor(cc.Arch)
	if node != "" {
		inj.SetRule(node, fault.Rule{
			ErrorRate:      cc.ErrorRate,
			StallWork:      chaosStallWork,
			StallRate:      cc.ErrorRate,
			SlowStartCalls: 50,
		})
		c.svc.Faults = inj
	}

	// The kill window is expressed in total driven ops (warmup included),
	// placed inside the metered window: down for ops*[2/5, 3/5). The
	// schedule advances in the driver's serialized per-op hook, so it
	// fires at execution time — correct under any parallelism, and at
	// parallelism 1 exactly the historical step-then-run order.
	var events []fault.Event
	if cc.KillWindow && node != "" {
		events = append(events,
			fault.Event{AtOp: o.Warmup + o.Ops*2/5, Node: node, Action: fault.ActKill},
			fault.Event{AtOp: o.Warmup + o.Ops*3/5, Node: node, Action: fault.ActRevive},
		)
	}
	sched := fault.NewSchedule(events)

	c.run.OnOp = func(int) { sched.Step(inj) }
	return o.runCell(fmt.Sprintf("chaos/%s/rate=%g", cc.Arch, cc.ErrorRate), c)
}

// defaultFaultRates is the chaos figure's sweep.
var defaultFaultRates = []float64{0, 0.01, 0.10, 0.50, 1.0}

// FigChaos is the `costbench chaos` scenario: cost per million requests
// and hit ratio for the Remote and Linked architectures as the cache
// tier's fault rate sweeps from zero to total loss, each cell also
// enduring a kill/revive episode. The expected shape: cost rises from
// the fault-free value toward Base's as the fault rate approaches 100%,
// while the service keeps answering every request (degradations, not
// errors).
func FigChaos(o FigOptions) (*Table, error) {
	o.applyDefaults()
	rates := o.FaultRates
	if len(rates) == 0 {
		rates = defaultFaultRates
	}
	t := &Table{
		ID:     "chaos",
		Title:  "Cost under cache-tier faults (synthetic, 1KB values, r=90%)",
		Header: []string{"arch", "fault_rate", "$/Mreq", "hit_ratio", "degraded", "retries", "vs_fault_free", "vs_Base"},
	}
	wcfg := workload.SyntheticConfig{Keys: o.Keys, Alpha: 1.2, ReadRatio: 0.9, ValueSize: 1 << 10, Seed: o.Seed}

	base, err := o.ChaosCell(ChaosConfig{Arch: Base}, wcfg)
	if err != nil {
		return nil, err
	}
	t.AddRow(Base.String(), 0.0, base.CostPerMReq, 0.0, 0, 0, 1.0, 1.0)

	for _, arch := range []Arch{Remote, Linked} {
		var faultFree float64
		for _, rate := range rates {
			res, err := o.ChaosCell(ChaosConfig{
				Arch:       arch,
				ErrorRate:  rate,
				KillWindow: rate > 0,
			}, wcfg)
			if err != nil {
				return nil, fmt.Errorf("chaos %s rate=%v: %w", arch, rate, err)
			}
			if faultFree == 0 {
				faultFree = res.CostPerMReq
			}
			t.AddRow(arch.String(), rate, res.CostPerMReq, res.HitRatio,
				res.Path.Degraded, res.Path.Retries,
				res.CostPerMReq/faultFree, res.CostPerMReq/base.CostPerMReq)
		}
	}
	t.Notes = append(t.Notes,
		"zero client-visible errors at every fault rate: cache errors degrade to storage loads",
		"cost/Mreq climbs from the fault-free value toward Base's as the cache fault rate -> 100%",
		"injected stalls are metered (component 'fault'), so chaos windows show up in the bill")
	return t, nil
}
