package core

import (
	"fmt"
	"time"

	"cachecost/internal/elastic"
	"cachecost/internal/meter"
	"cachecost/internal/workload"
)

// Elastic-figure calibration.
const (
	// elasticMemMultiplier prices DRAM at the paper's §4 elevated
	// scenario: elasticity is exactly the response the paper prescribes
	// when memory is the expensive resource — shrink the cache the hours
	// it isn't earning its rent.
	elasticMemMultiplier = 40
	// elasticValueSize keeps the working set small enough for fast cells
	// while leaving the cache tiers real bytes to resize.
	elasticValueSize = 4096
	// elasticLoad drives every cell at this fraction of its
	// architecture's closed-loop capacity so the diurnal peak stays
	// feasible and cost is compared at equal, met SLO.
	elasticLoad = 0.4
	// elasticStaticShare is the fixed cache provision (fraction of the
	// working set, percent) the static cells and the controller's
	// starting point both use — the repository's standard 60%.
	elasticStaticShare = 60
)

// FigElastic prices elastic cache provisioning against the static
// provisioning every other figure uses. Each architecture runs the same
// open-loop schedule twice — a diurnal arrival with a popularity flip
// (flash crowd) halfway through the metered window — once with the
// standard fixed 60%-of-working-set cache, once with the elastic
// controller retuning the cache's byte budget live against the
// memory-rent vs miss-cost trade-off. The meter's time-averaged memory
// pricing bills exactly the bytes held while they were held, so a
// controller that shrinks the cache off-peak shows up as rent saved.
// Base has no cache tier to tune; its row is the control pair.
func FigElastic(o FigOptions) (*Table, error) {
	o.applyDefaults()
	t := &Table{
		ID:    "elastic",
		Title: "Elastic vs static cache provisioning (diurnal + flash crowd, 40x memory price)",
		Header: []string{"arch", "mode", "$/Mreq", "p99_intended_ms", "hit", "mem_$/mo",
			"end_bytes", "resizes", "deadline_exp"},
	}
	prices := meter.GCP.WithMemoryMultiplier(elasticMemMultiplier)
	cfg := workload.SyntheticConfig{
		Keys: o.Keys, Alpha: 1.2, ReadRatio: 0.9, ValueSize: elasticValueSize, Seed: o.Seed,
	}
	ws := int64(cfg.Keys) * int64(cfg.ValueSize)

	cells := map[Arch][2]*RunResult{} // static, elastic
	for _, arch := range []Arch{Base, Remote, Linked} {
		// Closed-loop capacity probe; it also calibrates the marginal
		// cost of a miss from this architecture's own measured storage
		// bill.
		probe, _, err := o.elasticCell("", arch, cfg, ws, prices, nil, 0, false, 0)
		if err != nil {
			return nil, err
		}
		if probe.Throughput <= 0 {
			return nil, fmt.Errorf("core: elastic capacity probe for %s measured no throughput", arch)
		}
		missUSD := missCostUSD(probe, cfg.ReadRatio)
		slo := o.sloFor(probe, 250*time.Millisecond)
		arrival := workload.ArrivalConfig{
			Process: workload.ArrivalDiurnal,
			Rate:    elasticLoad * probe.Throughput,
			Seed:    o.Seed,
		}
		// The popularity flip lands halfway through the metered window:
		// the flash crowd the controller has to chase. Both cells see it.
		runCfg := cfg
		runCfg.FlipAt = o.Warmup + o.Ops/2

		var pair [2]*RunResult
		for i, mode := range []string{"static", "elastic"} {
			el := mode == "elastic" && arch != Base
			res, info, err := o.elasticCell(mode, arch, runCfg, ws, prices, &arrival, slo, el, missUSD)
			if err != nil {
				return nil, err
			}
			t.AddRow(arch.String(), mode, res.CostPerMReq, float64(res.LatencyP99)/1e6,
				res.HitRatio, res.Report.MemCost, info.endBytes, info.resizes,
				res.Path.Deadline)
			pair[i] = res
		}
		cells[arch] = pair
		if s, e := pair[0], pair[1]; arch != Base && s.Report.MemCost > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s: elastic pays %.3gx the static memory rent at a hit ratio %+.3f from static's",
				arch, e.Report.MemCost/s.Report.MemCost, e.HitRatio-s.HitRatio))
		}
	}
	t.Notes = append(t.Notes,
		"Base has no cache tier: its elastic cell runs identically to static (control pair)",
		fmt.Sprintf("static cells fix the cache at %d%% of the working set; elastic cells start there and let the controller move it", elasticStaticShare),
		"memory is billed time-averaged, so off-peak shrinking is rent actually saved, not cosmetics")
	if r, l := cells[Remote], cells[Linked]; r[1].CostPerMReq > 0 && l[1].CostPerMReq > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"verdict check: Linked/Remote cost ratio is %.3g static vs %.3g elastic — elasticity narrows the bill but does not flip the paper's ordering",
			l[0].CostPerMReq/r[0].CostPerMReq, l[1].CostPerMReq/r[1].CostPerMReq))
	}
	return t, nil
}

// elasticInfo is the controller-side readout of one cell.
type elasticInfo struct {
	endBytes int64
	resizes  int64
}

// elasticCell runs one (arch, mode) cell on a fresh deployment. A nil
// arrival runs the closed-loop capacity probe. With el set, an elastic
// controller observes every read and retunes the architecture's cache
// tier on the driver's op clock.
func (o FigOptions) elasticCell(mode string, arch Arch, cfg workload.SyntheticConfig, ws int64,
	prices meter.PriceBook, arrival *workload.ArrivalConfig, slo time.Duration,
	el bool, missUSD float64) (*RunResult, elasticInfo, error) {

	c := o.synthCell(arch, cfg)
	c.svc.Parallelism = 1
	staticBytes := ws * elasticStaticShare / 100
	c.svc.AppCacheBytes, c.svc.RemoteCacheBytes = staticBytes, staticBytes
	c.run.Prices = prices
	label := ""
	if arrival != nil {
		c.openLoop(*arrival, slo)
		label = fmt.Sprintf("elastic/%s/%s", arch, mode)
	}

	var ctrl *elastic.Controller
	if el {
		c.built = func(svc *KVService) error {
			ecfg := elastic.Config{
				Name:        arch.String(),
				Prices:      prices,
				MissCostUSD: missUSD,
				MinBytes:    ws / 64,
				MaxBytes:    2 * ws,
				Registry:    o.Telemetry,
			}
			switch {
			case svc.LinkedCache() != nil:
				ecfg.Target = svc.LinkedCache()
				ecfg.Replicas = o.AppReplicas
			case svc.RemoteCacheServer() != nil:
				ecfg.Target = svc.RemoteCacheServer()
			default:
				return fmt.Errorf("core: %s has no resizable cache tier", arch)
			}
			ctrl = elastic.New(ecfg)
			svc.SetAccessObserver(ctrl.Observe)
			// Tick on the driver's op clock — deterministic across runs,
			// warmup included, so the controller is already tracking when
			// the metered window opens.
			every := (o.Warmup + o.Ops) / 60
			if every < 500 {
				every = 500
			}
			c.run.OnOp = func(n int) {
				if n > 0 && n%every == 0 {
					ctrl.Tick()
				}
			}
			return nil
		}
	}

	res, err := o.runCell(label, c)
	if err != nil {
		return nil, elasticInfo{}, err
	}
	svc, info := c.kv, elasticInfo{}
	if el {
		info.endBytes = ctrl.TargetBytes()
		info.resizes = ctrl.Resizes()
	} else {
		switch {
		case svc.LinkedCache() != nil:
			info.endBytes = svc.LinkedCache().Capacity()
		case svc.RemoteCacheServer() != nil:
			info.endBytes = svc.RemoteCacheServer().Capacity()
		}
	}
	return res, info, nil
}

// missCostUSD calibrates the marginal dollar cost of one cache miss
// from a measured closed-loop run: the storage tier's monthly bill
// divided by the monthly operations that reached it (read misses plus
// writes).
func missCostUSD(probe *RunResult, readRatio float64) float64 {
	const secondsPerMonth = 30 * 24 * 3600
	storageOpsPerSec := probe.Throughput * (readRatio*(1-probe.HitRatio) + (1 - readRatio))
	if storageOpsPerSec <= 0 || probe.StorageCost <= 0 {
		return 1e-7
	}
	return probe.StorageCost / (storageOpsPerSec * secondsPerMonth)
}
