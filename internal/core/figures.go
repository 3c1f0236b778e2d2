package core

import (
	"fmt"
	"sort"
	"time"

	"cachecost/internal/consistency"
	"cachecost/internal/flight"
	"cachecost/internal/meter"
	"cachecost/internal/telemetry"
	"cachecost/internal/trace"
	"cachecost/internal/workload"
)

// FigOptions scales the figure reproductions. The defaults run every
// figure in seconds on a laptop; raise Ops/Keys/Tables (cmd/costbench
// flags) for tighter estimates at the paper's population sizes.
type FigOptions struct {
	// Ops and Warmup are the metered and unmetered operation counts per
	// experiment cell. Defaults 3000 / 1000.
	Ops, Warmup int
	// Keys is the synthetic key population (paper: 100K). Default 2000.
	Keys int
	// Tables is the catalog population (paper trace: tens of thousands).
	// Default 300.
	Tables int
	// Seed drives workload determinism. Default 1.
	Seed int64
	// AppReplicas is the number of application servers carrying the
	// linked cache (memory billed per server). Default 3.
	AppReplicas int
	// FaultRates overrides the chaos figure's fault-rate sweep
	// (cmd/costbench -faultrate). Empty means the default sweep.
	FaultRates []float64
	// Parallelism drives experiment cells with that many concurrent
	// workers on as many worker lanes (cmd/costbench -parallelism), on
	// every architecture; cells that measure one timeline (tiering,
	// elastic) stay single-lane. Default 1.
	Parallelism int
	// Tracer, when non-nil, assembles every experiment cell's service
	// with request tracing (cmd/costbench -trace): the tracer's ring holds
	// the last sampled traces for export. Nil (the default) disables
	// tracing; each cell's RunResult.Path is exact either way.
	Tracer *trace.Tracer
	// Telemetry, when non-nil, threads the live metrics registry through
	// every experiment cell (cmd/costbench -metrics): the cell's service
	// stack records RPC/cache/storage telemetry into it, the cell's fresh
	// meter is bridged through a named collector (replaced per cell so
	// scrapes always see the live cell), and each RunResult carries the
	// cell's histogram summaries.
	Telemetry *telemetry.Registry
	// BatchSizes overrides the batch figure's batch-size sweep
	// (cmd/costbench -batchsizes). Empty means the default sweep
	// B ∈ {1, 2, 4, 8, 16, 32}.
	BatchSizes []int
	// OfferedLoads overrides the overload figure's offered-load sweep,
	// as multiples of each architecture's probed closed-loop capacity
	// (cmd/costbench -offered). Empty means 0.3, 0.6, 1.5, 3.0.
	OfferedLoads []float64
	// SLO overrides the overload figure's per-request latency budget
	// (cmd/costbench -slo). Zero derives it from the capacity probe:
	// max(10x closed-loop p99, 2ms).
	SLO time.Duration
	// Arrival names the overload figure's arrival process
	// (cmd/costbench -arrival): poisson, bursty or diurnal. Empty means
	// poisson.
	Arrival string
	// Flight, when non-nil, is the tail-latency flight recorder armed on
	// every experiment cell's front door (cmd/costbench always creates
	// one, which /debug/requests and the -flightdump watchdog read). The
	// overload figure reads its exemplars, building a private recorder
	// when this is nil.
	Flight *flight.Recorder
	// OnResult, when non-nil, receives every completed experiment cell's
	// result as figures produce them, keyed by a cell label
	// ("fig5b/Remote", "chaos/Linked/rate=0.1", ...). cmd/costbench uses
	// it to stream per-cell measured latency into -json output.
	OnResult func(cell string, res *RunResult)
}

// emit hands a completed cell's result to the OnResult hook.
func (o FigOptions) emit(cell string, res *RunResult) {
	if o.OnResult != nil {
		o.OnResult(cell, res)
	}
}

func (o *FigOptions) applyDefaults() {
	if o.Ops <= 0 {
		o.Ops = 3000
	}
	if o.Warmup <= 0 {
		o.Warmup = 1000
	}
	if o.Keys <= 0 {
		o.Keys = 2000
	}
	if o.Tables <= 0 {
		o.Tables = 300
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.AppReplicas <= 0 {
		o.AppReplicas = 3
	}
	o.Parallelism = max(o.Parallelism, 1)
}

// figCell is one experiment cell before it runs: the default deployment
// and run for an (arch, workload) pair, which a figure mutates into the
// point it measures — so a figure states only what distinguishes it.
type figCell struct {
	gen workload.Generator
	svc ServiceConfig
	run RunConfig
	// deploy, when set, builds the cell's service in place of the
	// preloaded KVService (unityCell's rich-object application).
	deploy func(ServiceConfig) (Service, error)
	// built, when set, sees the built KVService before traffic starts
	// (install an observer, warm a tier).
	built func(kv *KVService) error
	// kv is the built KVService, once runCell has run.
	kv *KVService
}

// newCell is the default cell for arch on gen, whose materialized working
// set is ws bytes: a fresh meter, bridged into the telemetry registry
// under the fixed collector name "meter" (replacing the previous cell's
// bridge, so scrapes during a figure run always read the live cell's
// attribution), and caches sized to 60% of the working set. With
// experiment-scale key populations (hundreds to thousands of keys) that
// reproduces the cache hit ratios (~0.9) that the paper's configuration —
// GBs of cache over 100K Zipfian keys — reaches, because Zipfian mass
// concentrates more as the population grows.
func (o FigOptions) newCell(arch Arch, gen workload.Generator, ws int64) *figCell {
	m := meter.NewMeter()
	telemetry.RegisterMeter(o.Telemetry, "meter", m)
	return &figCell{
		gen: gen,
		svc: ServiceConfig{
			Arch:              arch,
			Meter:             m,
			StorageCacheBytes: ws * 15 / 100,
			AppCacheBytes:     ws * 60 / 100,
			RemoteCacheBytes:  ws * 60 / 100,
			AppReplicas:       o.AppReplicas,
			Parallelism:       o.Parallelism,
			Tracer:            o.Tracer,
			Telemetry:         o.Telemetry,
			Flight:            o.Flight,
		},
		run: RunConfig{
			Warmup: o.Warmup, Ops: o.Ops, Prices: meter.GCP, Telemetry: o.Telemetry,
		},
	}
}

// synthCell is newCell over a synthetic workload, whose working set is
// keys x value size.
func (o FigOptions) synthCell(arch Arch, cfg workload.SyntheticConfig) *figCell {
	return o.newCell(arch, workload.NewSynthetic(cfg), int64(cfg.Keys)*int64(cfg.ValueSize))
}

// runCell is the one cell runner: it builds and preloads c's deployment,
// drives it at the parallelism it was built with, and hands the result
// to OnResult under label (capacity probes pass none).
func (o FigOptions) runCell(label string, c *figCell) (*RunResult, error) {
	svc, err := c.build()
	if err != nil {
		return nil, err
	}
	c.run.Parallelism = c.svc.Parallelism
	res, err := RunExperimentCfg(svc, c.svc.Meter, c.gen, c.run)
	if err != nil {
		return nil, err
	}
	if label != "" {
		o.emit(label, res)
	}
	return res, nil
}

// build deploys c's service.
func (c *figCell) build() (Service, error) {
	if c.deploy != nil {
		return c.deploy(c.svc)
	}
	kv, err := BuildKVService(c.svc, c.gen)
	c.kv = kv
	if err == nil && c.built != nil {
		err = c.built(kv)
	}
	return kv, err
}

// kvCell runs the default cell for one (arch, synthetic workload) pair.
func (o FigOptions) kvCell(arch Arch, cfg workload.SyntheticConfig) (*RunResult, error) {
	return o.runCell(fmt.Sprintf("kv/%s/r=%.2f/v=%s", arch, cfg.ReadRatio, sizeLabel(cfg.ValueSize)), o.synthCell(arch, cfg))
}

// openLoop drives c from an arrival schedule, each op carrying a
// deadline slo past its intended arrival: the front door answers an op
// that reaches it past that deadline without work.
func (c *figCell) openLoop(arrival workload.ArrivalConfig, slo time.Duration) {
	c.run.Arrival, c.run.SLO = &arrival, slo
}

// sloFor is an open-loop figure's per-request budget: the configured
// SLO, else ~10x the capacity probe's unloaded p99, floored.
func (o FigOptions) sloFor(probe *RunResult, floor time.Duration) time.Duration {
	if o.SLO > 0 {
		return o.SLO
	}
	return max(10*probe.LatencyP99, floor)
}

// arrivalProcess is the configured arrival process (default poisson).
func (o FigOptions) arrivalProcess() (workload.ArrivalProcess, error) {
	if o.Arrival == "" {
		return workload.ArrivalPoisson, nil
	}
	return workload.ParseArrivalProcess(o.Arrival)
}

// fig2a reproduces Figure 2a: the analytic model's cost saving of Linked
// (s_A = 8 GB, s_D = 1 GB) over Base (1 GB in-storage cache) as the
// Zipfian skew α varies.
func fig2a(o FigOptions) (*Table, error) {
	o.applyDefaults()
	t := &Table{
		ID:     "fig2a",
		Title:  "Model: cost saving vs Zipfian alpha (Linked 8GB+1GB vs Base 1GB)",
		Header: []string{"alpha", "saving_Nr1", "saving_Nr3", "MR(sA)", "T_base_$", "T_linked_$"},
	}
	const sA, sD = 8 << 30, 1 << 30
	for _, alpha := range []float64{0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4} {
		m := DefaultModel(alpha)
		s1 := m.CostSaving(sA, sD, sD)
		m3 := m
		m3.Replicas = 3
		s3 := m3.CostSaving(sA, sD, sD)
		t.AddRow(alpha, s1, s3, m.MR(sA), m.TotalCost(0, sD), m.TotalCost(sA, sD))
	}
	t.Notes = append(t.Notes, "adding linked cache saves cost at every skew; replication (N_r) taxes but does not erase the saving")
	return t, nil
}

// fig2b reproduces Figure 2b: saving as the replica count N_r grows,
// at list memory price and at 40x memory price (with the allocation
// re-optimized, per the §4 takeaway).
func fig2b(o FigOptions) (*Table, error) {
	o.applyDefaults()
	t := &Table{
		ID:     "fig2b",
		Title:  "Model: cost saving vs replicas N_r (alpha=1.2)",
		Header: []string{"N_r", "saving_8GB", "saving_40x_optimal_sA", "optimal_sA_GB_40x"},
	}
	const sD = 1 << 30
	base := DefaultModel(1.2) // one miss-ratio curve; each row copies the model
	for nr := 1; nr <= 10; nr++ {
		m := base
		m.Replicas = float64(nr)
		s := m.CostSaving(8<<30, sD, sD)

		mx := base
		mx.Replicas = float64(nr)
		mx.Prices = meter.GCP.WithMemoryMultiplier(40)
		opt := mx.OptimalSA(sD, 16<<30)
		sx := mx.CostSaving(opt, sD, sD)
		t.AddRow(nr, s, sx, opt/(1<<30))
	}
	t.Notes = append(t.Notes, "even at 40x memory prices the optimally sized linked cache still saves cost")
	return t, nil
}

// fig3 reproduces Figure 3: the Unity-Catalog trace distributions —
// value sizes (3a) and access frequencies (3b).
func fig3(o FigOptions) (*Table, error) {
	o.applyDefaults()
	gen := workload.NewUnity(workload.UnityConfig{Tables: o.Tables * 10, Seed: o.Seed})
	n := o.Ops * 10
	st := workload.Analyze(gen, n)

	t := &Table{
		ID:     "fig3",
		Title:  "Unity Catalog trace distributions",
		Header: []string{"metric", "value"},
	}
	t.AddRow("operations", st.Ops)
	t.AddRow("read ratio", st.ReadRatio())
	t.AddRow("unique keys", st.UniqueKeys)
	t.AddRow("value size p50 (KB)", float64(st.SizeP50)/1024)
	t.AddRow("value size p90 (KB)", float64(st.SizeP90)/1024)
	t.AddRow("value size p99 (KB)", float64(st.SizeP99)/1024)
	t.AddRow("value size max (KB)", float64(st.SizeMax)/1024)
	for _, k := range []int{1, 10, 100, 1000} {
		t.AddRow(fmt.Sprintf("access share of top %d keys", k), st.TopKShare(k))
	}
	t.Notes = append(t.Notes, "paper reports ~23KB median with large tail values and strong access skew (~93% reads)")
	return t, nil
}

// fig4a reproduces Figure 4a: total cost per million requests across
// architectures as the read ratio varies (1 KB values).
func fig4a(o FigOptions) (*Table, error) {
	o.applyDefaults()
	t := &Table{
		ID:     "fig4a",
		Title:  "Total cost vs read ratio (synthetic, 1KB values)",
		Header: []string{"read_ratio", "Base_$/Mreq", "Remote_$/Mreq", "Linked_$/Mreq", "saving_Linked"},
	}
	for _, r := range []float64{0.50, 0.70, 0.90, 0.95, 0.99} {
		cfg := workload.SyntheticConfig{Keys: o.Keys, Alpha: 1.2, ReadRatio: r, ValueSize: 1 << 10, Seed: o.Seed}
		var cost [3]float64
		for i, arch := range Archs {
			res, err := o.kvCell(arch, cfg)
			if err != nil {
				return nil, err
			}
			cost[i] = res.CostPerMReq
		}
		t.AddRow(r, cost[0], cost[1], cost[2], cost[0]/cost[2])
	}
	t.Notes = append(t.Notes, "caches save more as the workload gets more read-heavy")
	return t, nil
}

// fig4bKeysFor bounds the preloaded population so the biggest value sizes
// stay in memory at experiment scale, while keeping enough keys for a
// meaningful hit-ratio curve.
func fig4bKeysFor(valueSize, baseKeys int) int {
	const budget = 96 << 20 // bytes of preloaded values per deployment
	k := budget / valueSize
	if k > baseKeys {
		k = baseKeys
	}
	if k < 48 {
		k = 48
	}
	return k
}

// fig4b reproduces Figure 4b: total cost across architectures as the
// value size grows from 1KB to 1MB (r = 90%). The paper reports Linked
// saving 3.9x at 1KB rising to 7.3x at 1MB.
func fig4b(o FigOptions) (*Table, error) {
	o.applyDefaults()
	t := &Table{
		ID:     "fig4b",
		Title:  "Total cost vs value size (synthetic, r=90%)",
		Header: []string{"value_size", "keys", "Base_$/Mreq", "Remote_$/Mreq", "Linked_$/Mreq", "saving_Linked"},
	}
	for _, vs := range []int{1 << 10, 10 << 10, 100 << 10, 1 << 20} {
		keys := fig4bKeysFor(vs, o.Keys)
		cfg := workload.SyntheticConfig{Keys: keys, Alpha: 1.2, ReadRatio: 0.9, ValueSize: vs, Seed: o.Seed}
		ops := o.Ops
		if vs >= 100<<10 {
			ops = o.Ops / 5 // large-value cells move far more bytes per op
		}
		oo := o
		oo.Ops = ops
		oo.Warmup = ops / 3
		var cost [3]float64
		for i, arch := range Archs {
			res, err := oo.kvCell(arch, cfg)
			if err != nil {
				return nil, err
			}
			cost[i] = res.CostPerMReq
		}
		t.AddRow(sizeLabel(vs), keys, cost[0], cost[1], cost[2], cost[0]/cost[2])
	}
	t.Notes = append(t.Notes, "larger values mean more (de)serialization and disk bytes, widening Linked's advantage")
	return t, nil
}

func sizeLabel(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// fig5a reproduces Figure 5a: cost across architectures on the Unity
// Catalog-KV workload (denormalized single-row reads).
func fig5a(o FigOptions) (*Table, error) {
	o.applyDefaults()
	return savingTable("fig5a", "Cost on Unity Catalog-KV (denormalized)", func(arch Arch) (*RunResult, error) {
		return o.catalogCell(arch, ModeKV)
	})
}

// savingTable runs cell for each of Archs and tabulates its cost, hit
// ratio, storage share of the bill, and saving against Base.
func savingTable(id, title string, cell func(Arch) (*RunResult, error)) (*Table, error) {
	t := &Table{ID: id, Title: title, Header: []string{"arch", "$/Mreq", "hit_ratio", "storage_share", "saving_vs_Base"}}
	var baseCost float64
	for _, arch := range Archs {
		res, err := cell(arch)
		if err != nil {
			return nil, err
		}
		if arch == Base {
			baseCost = res.CostPerMReq
		}
		t.AddRow(arch.String(), res.CostPerMReq, res.HitRatio,
			res.StorageCost/res.Report.TotalCost, baseCost/res.CostPerMReq)
	}
	return t, nil
}

// unityCell is newCell over the Unity Catalog trace, deploying the
// rich-object application in mode over o.Tables tables, whose
// materialized working set is the Figure 3a object sizes. Rich objects
// move far more bytes per op, so the cell runs a third of the ops.
func (o FigOptions) unityCell(arch Arch, mode CatalogMode) *figCell {
	var ws int64
	for i := 0; i < o.Tables; i++ {
		ws += int64(workload.UnityValueSize(i))
	}
	c := o.newCell(arch, workload.NewUnity(workload.UnityConfig{Tables: o.Tables, Seed: o.Seed}), ws)
	c.deploy = func(svc ServiceConfig) (Service, error) {
		return NewCatalogService(CatalogServiceConfig{ServiceConfig: svc, Mode: mode, Tables: o.Tables, Seed: o.Seed})
	}
	ops := max(o.Ops/3, 200)
	c.run.Warmup, c.run.Ops = ops/3, ops
	return c
}

// catalogCell runs the default cell for one (arch, catalog mode) pair.
func (o FigOptions) catalogCell(arch Arch, mode CatalogMode) (*RunResult, error) {
	return o.runCell(fmt.Sprintf("catalog/%s/%s", mode, arch), o.unityCell(arch, mode))
}

// fig5b reproduces Figure 5b: cost across architectures on the Meta-like
// key-value trace (30% writes, ~10B values).
func fig5b(o FigOptions) (*Table, error) {
	o.applyDefaults()
	// The ~10B values are dwarfed by per-entry overhead, so the working
	// set counts it.
	var ws int64
	for i := 0; i < o.Keys; i++ {
		ws += int64(workload.MetaValueSize(i)) + 64
	}
	t, err := savingTable("fig5b", "Cost on Meta-like trace", func(arch Arch) (*RunResult, error) {
		gen := workload.NewMetaKV(workload.MetaKVConfig{Keys: o.Keys, Seed: o.Seed})
		return o.runCell("fig5b/"+arch.String(), o.newCell(arch, gen, ws))
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "30% writes cap the saving: every write still pays storage and replication")
	return t, nil
}

// fig6 reproduces Figure 6: the relative CPU breakdown across app server,
// remote cache and storage as value size varies, for each architecture —
// including Linked+Version, whose checks restore storage load (§5.5).
func fig6(o FigOptions) (*Table, error) {
	o.applyDefaults()
	t := &Table{
		ID:    "fig6",
		Title: "CPU breakdown (fraction of busy CPU) by architecture and value size",
		Header: []string{"arch", "value_size", "app", "cache", "storage",
			"storage.sql", "storage.exec", "storage.kv", "storage.raft", "mem_frac"},
	}
	for _, arch := range []Arch{Base, Remote, Linked, LinkedVersion} {
		for _, vs := range []int{1 << 10, 32 << 10, 256 << 10} {
			keys := fig4bKeysFor(vs, o.Keys)
			cfg := workload.SyntheticConfig{Keys: keys, Alpha: 1.2, ReadRatio: 0.9, ValueSize: vs, Seed: o.Seed}
			oo := o
			if vs >= 100<<10 {
				oo.Ops = o.Ops / 4
				oo.Warmup = oo.Ops / 3
			}
			res, err := oo.kvCell(arch, cfg)
			if err != nil {
				return nil, err
			}
			rep := res.Report
			totalCores := rep.ComponentCores("")
			frac := func(prefix string) float64 {
				if totalCores == 0 {
					return 0
				}
				return rep.ComponentCores(prefix) / totalCores
			}
			storCores := rep.ComponentCores("storage")
			storFrac := func(sub string) float64 {
				if storCores == 0 {
					return 0
				}
				return rep.ComponentCores(sub) / storCores
			}
			t.AddRow(arch.String(), sizeLabel(vs),
				frac("app"), frac("remotecache"), frac("storage"),
				storFrac("storage.sql"), storFrac("storage.exec"),
				storFrac("storage.kv"), storFrac("storage.raft"),
				rep.MemFraction())
		}
	}
	t.Notes = append(t.Notes,
		"as values grow, write service cost concentrates in storage",
		"storage.sql+exec is the paper's 'query processing' share (40-65% of database CPU)")
	return t, nil
}

// fig7 reproduces Figure 7: Unity Catalog-Object (rich objects composed
// from 8 SQL queries) across architectures, and the §5.4 comparison of
// Object-mode vs KV-mode savings.
func fig7(o FigOptions) (*Table, error) {
	o.applyDefaults()
	t := &Table{
		ID:     "fig7",
		Title:  "Cost on Unity Catalog-Object (rich objects, 8 SQL queries per read)",
		Header: []string{"arch", "$/Mreq", "hit_ratio", "saving_vs_Base"},
	}
	costs := make(map[Arch]float64)
	var baseCost float64
	for _, arch := range Archs {
		res, err := o.catalogCell(arch, ModeObject)
		if err != nil {
			return nil, err
		}
		costs[arch] = res.CostPerMReq
		if arch == Base {
			baseCost = res.CostPerMReq
		}
		t.AddRow(arch.String(), res.CostPerMReq, res.HitRatio, baseCost/res.CostPerMReq)
	}
	// The §5.4 punchline: compare Object-mode saving with KV-mode saving.
	kvBase, err := o.catalogCell(Base, ModeKV)
	if err != nil {
		return nil, err
	}
	kvLinked, err := o.catalogCell(Linked, ModeKV)
	if err != nil {
		return nil, err
	}
	objSaving := baseCost / costs[Linked]
	kvSaving := kvBase.CostPerMReq / kvLinked.CostPerMReq
	t.Notes = append(t.Notes,
		fmt.Sprintf("Linked saving: Object %.2fx vs KV %.2fx (ratio %.2fx; paper reports up to 2x wider, up to 8x vs storage)",
			objSaving, kvSaving, objSaving/kvSaving))
	return t, nil
}

// fig8 reproduces Figure 8: the delayed-writes anomaly, with and without
// write fencing.
func fig8(o FigOptions) (*Table, error) {
	t := &Table{
		ID:     "fig8",
		Title:  "Delayed writes across a reshard",
		Header: []string{"fencing", "delayed_write_applied", "cache", "storage", "stale"},
	}
	for _, fenced := range []bool{false, true} {
		r := consistency.RunDelayedWriteScenario(fenced)
		t.AddRow(fmt.Sprintf("%v", r.Fenced), fmt.Sprintf("%v", r.DelayedWriteApplied),
			r.CacheValue, r.StorageValue, fmt.Sprintf("%v", r.Stale))
	}
	t.Notes = append(t.Notes, "without fencing the new owner's cache diverges from storage permanently")
	return t, nil
}

// figConsistency reproduces the §5.5/§6 comparison: the cost of
// consistency across Linked, Linked+Version and the ownership design.
func figConsistency(o FigOptions) (*Table, error) {
	o.applyDefaults()
	t := &Table{
		ID:     "consistency",
		Title:  "The cost of consistent caching (synthetic, 4KB values, r=90%)",
		Header: []string{"arch", "$/Mreq", "hit_ratio", "storage_$/Mreq", "overhead_vs_Linked"},
	}
	cfg := workload.SyntheticConfig{Keys: o.Keys, Alpha: 1.2, ReadRatio: 0.9, ValueSize: 4 << 10, Seed: o.Seed}
	var linkedCost float64
	for _, arch := range []Arch{Base, Linked, LinkedTTL, LinkedVersion, LinkedOwned} {
		res, err := o.kvCell(arch, cfg)
		if err != nil {
			return nil, err
		}
		if arch == Linked {
			linkedCost = res.CostPerMReq
		}
		storagePerM := res.CostPerMReq * (res.StorageCost / res.Report.TotalCost)
		overhead := 0.0
		if linkedCost > 0 {
			overhead = res.CostPerMReq / linkedCost
		}
		t.AddRow(arch.String(), res.CostPerMReq, res.HitRatio, storagePerM, overhead)
	}
	t.Notes = append(t.Notes,
		"Linked+Version pays a storage round trip per read: most of the saving is gone (§5.5)",
		"Linked+TTL keeps Linked's economics but bounds staleness instead of eliminating it",
		"ownership leases (§6) recover the saving while preserving linearizable reads")
	return t, nil
}

// figAblation probes the sensitivity of the headline conclusion (caches
// save money; Linked wins) to the simulator's calibration constants: the
// storage SQL front-end charge and the disk penalty. The conclusion
// should hold across a wide band, not just at the defaults.
func figAblation(o FigOptions) (*Table, error) {
	o.applyDefaults()
	t := &Table{
		ID:     "ablation",
		Title:  "Calibration ablation: Linked's saving across simulator constants",
		Header: []string{"frontend_work", "disk_per_byte", "Base_$/Mreq", "Linked_$/Mreq", "saving"},
	}
	cfg := workload.SyntheticConfig{Keys: o.Keys, Alpha: 1.2, ReadRatio: 0.9, ValueSize: 2 << 10, Seed: o.Seed}
	run := func(arch Arch, frontend int, diskPerByte float64) (*RunResult, error) {
		c := o.synthCell(arch, cfg)
		c.svc.StorageFrontendWork, c.svc.DiskPenaltyPerByte = frontend, diskPerByte
		c.run.Warmup, c.run.Ops = o.Warmup/2, o.Ops/2
		return o.runCell(fmt.Sprintf("ablation/%s/fe=%d/disk=%g", arch, frontend, diskPerByte), c)
	}
	for _, fe := range []int{-1, 16384, 49152, 131072} {
		for _, disk := range []float64{0.25, 1, 4} {
			base, err := run(Base, fe, disk)
			if err != nil {
				return nil, err
			}
			linked, err := run(Linked, fe, disk)
			if err != nil {
				return nil, err
			}
			label := fmt.Sprintf("%d", fe)
			if fe < 0 {
				label = "0 (off)"
			}
			t.AddRow(label, disk, base.CostPerMReq, linked.CostPerMReq,
				base.CostPerMReq/linked.CostPerMReq)
		}
	}
	t.Notes = append(t.Notes,
		"the ordering Base > Linked must survive every constant choice; the magnitude moves with them",
		"frontend_work 49152 and disk 1.0 are the defaults used throughout EXPERIMENTS.md")
	return t, nil
}

// figAllocation tests the paper's second hypothesis (§3): for a fixed
// total memory budget, shifting bytes from the storage-layer block cache
// (s_D) to the application-linked cache (s_A) lowers total cost — "more
// distributed in-memory caches, less storage layer caches".
func figAllocation(o FigOptions) (*Table, error) {
	o.applyDefaults()
	t := &Table{
		ID:     "allocation",
		Title:  "Fixed memory budget split between linked cache (s_A) and storage cache (s_D)",
		Header: []string{"sA_share", "sA_bytes", "sD_bytes", "$/Mreq", "hit_ratio", "vs_all_storage"},
	}
	cfg := workload.SyntheticConfig{Keys: o.Keys, Alpha: 1.2, ReadRatio: 0.9, ValueSize: 2 << 10, Seed: o.Seed}
	budget := int64(cfg.Keys) * int64(cfg.ValueSize) * 75 / 100 // 75% of working set, total
	var allStorage float64
	for _, share := range []int{0, 25, 50, 75, 100} {
		sA := budget * int64(share) / 100
		sD := budget - sA
		arch := Linked
		if share == 0 {
			arch = Base // no app cache at all
		}
		c := o.synthCell(arch, cfg)
		// A zero budget would select the 8 MiB default.
		c.svc.StorageCacheBytes, c.svc.AppCacheBytes = max(sD, 1), max(sA, 1)
		res, err := o.runCell(fmt.Sprintf("allocation/sA=%d%%", share), c)
		if err != nil {
			return nil, err
		}
		if share == 0 {
			allStorage = res.CostPerMReq
		}
		t.AddRow(fmt.Sprintf("%d%%", share), sA, sD, res.CostPerMReq, res.HitRatio,
			allStorage/res.CostPerMReq)
	}
	t.Notes = append(t.Notes,
		"same total DRAM; moving it next to the application buys more hit ratio per dollar and removes per-query storage CPU",
		"the paper's hypothesis: provision more distributed cache, less storage-layer cache")
	return t, nil
}

// figMarginal reproduces the §4 takeaway table: marginal value of app
// cache vs storage cache and the optimal allocation.
func figMarginal(o FigOptions) (*Table, error) {
	o.applyDefaults()
	t := &Table{
		ID:     "marginal",
		Title:  "Model: where to spend the next byte of memory (alpha=1.2)",
		Header: []string{"s_A_GB", "s_D_GB", "|dT/dsA|_$/GB", "|dT/dsD|_$/GB", "favors"},
	}
	m := DefaultModel(1.2)
	for _, sA := range []float64{0, 1 << 30, 4 << 30, 8 << 30} {
		for _, sD := range []float64{1 << 30, 4 << 30} {
			dA, dD := m.MarginalA(sA, sD), m.MarginalD(sA, sD)
			favors := "app cache"
			if abs(dD) > abs(dA) {
				favors = "storage cache"
			}
			const gb = 1 << 30
			t.AddRow(sA/(1<<30), sD/(1<<30), abs(dA)*gb, abs(dD)*gb, favors)
		}
	}
	opt := m.OptimalSA(1<<30, 16<<30)
	t.Notes = append(t.Notes,
		fmt.Sprintf("optimal s_A with s_D=1GB: %.1f GB — provision linked cache until its marginal benefit hits the memory price", opt/(1<<30)))
	return t, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Figure is a registered reproduction.
type Figure struct {
	ID    string
	Title string
	Run   func(FigOptions) (*Table, error)
}

// Figures lists every reproduction in presentation order.
var Figures = []Figure{
	{"fig2a", "model: saving vs alpha", fig2a},
	{"fig2b", "model: saving vs replicas", fig2b},
	{"fig3", "Unity Catalog trace distributions", fig3},
	{"fig4a", "cost vs read ratio", fig4a},
	{"fig4b", "cost vs value size", fig4b},
	{"fig5a", "Unity Catalog-KV costs", fig5a},
	{"fig5b", "Meta trace costs", fig5b},
	{"fig6", "CPU breakdowns", fig6},
	{"fig7", "Unity Catalog-Object costs", fig7},
	{"fig8", "delayed writes", fig8},
	{"consistency", "cost of consistency", figConsistency},
	{"marginal", "model marginals", figMarginal},
	{"allocation", "memory split: linked vs storage cache", figAllocation},
	{"ablation", "calibration sensitivity", figAblation},
	{"batch", "cost vs multi-key batch size", FigBatch},
	{"chaos", "cost under cache-tier faults", FigChaos},
	{"overload", "open-loop cost and honest latency past saturation", FigOverload},
	{"hotshard", "dynamic shard management through a popularity flip", FigHotShard},
	{"tiering", "durable storage: cost vs DRAM:disk split", FigTiering},
	{"elastic", "elastic vs static cache provisioning", FigElastic},
}

// FigureByID returns the registered figure or an error listing options.
func FigureByID(id string) (Figure, error) {
	for _, f := range Figures {
		if f.ID == id {
			return f, nil
		}
	}
	ids := make([]string, 0, len(Figures))
	for _, f := range Figures {
		ids = append(ids, f.ID)
	}
	sort.Strings(ids)
	return Figure{}, fmt.Errorf("core: unknown figure %q (have %v)", id, ids)
}
