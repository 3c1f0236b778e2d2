package core

import (
	"testing"

	"cachecost/internal/elastic"
	"cachecost/internal/meter"
	"cachecost/internal/telemetry"
	"cachecost/internal/workload"
)

// The elastic controller wired through the real service path must keep
// three views of the budget in lockstep after every tick: the cache
// tier's live capacity, the meter's priced memory (budget × replicas)
// and the elastic.target_bytes telemetry gauge. This is the figure's
// billing invariant — a resize the meter misses would make elastic
// savings cosmetic.
func TestElasticControllerSyncThroughService(t *testing.T) {
	const replicas = 3
	m := meter.NewMeter()
	reg := telemetry.NewRegistry()
	cfg := workload.SyntheticConfig{Keys: 500, Alpha: 1.2, ReadRatio: 0.9, ValueSize: 2048, Seed: 7}
	gen := workload.NewSynthetic(cfg)
	ws := int64(cfg.Keys) * int64(cfg.ValueSize)

	svc, err := BuildKVService(ServiceConfig{
		Arch:              Linked,
		Meter:             m,
		StorageCacheBytes: ws * 15 / 100,
		AppCacheBytes:     ws, // deliberately oversized: the controller must shrink it
		RemoteCacheBytes:  ws,
		AppReplicas:       replicas,
		Telemetry:         reg,
	}, gen)
	if err != nil {
		t.Fatal(err)
	}
	lc := svc.LinkedCache()
	if lc == nil {
		t.Fatal("Linked service must expose its cache tier")
	}

	ctrl := elastic.New(elastic.Config{
		Name:        "app.cache",
		Target:      lc,
		Prices:      meter.GCP.WithMemoryMultiplier(40),
		Replicas:    replicas,
		MissCostUSD: 1e-7,
		MinBytes:    ws / 64,
		MaxBytes:    2 * ws,
		Registry:    reg,
	})
	svc.SetAccessObserver(ctrl.Observe)

	comp := m.Component("app.cache")
	gauge := reg.Gauge("elastic.target_bytes", telemetry.L("tier", "app.cache"))
	checks, resizes := 0, 0
	rc := RunConfig{
		Warmup: 500, Ops: 4000, Prices: meter.GCP,
		OnOp: func(n int) {
			if n == 0 || n%500 != 0 {
				return
			}
			d := ctrl.Tick()
			checks++
			if d.Resized {
				resizes++
			}
			if lc.Capacity() != d.TargetBytes {
				t.Errorf("op %d: cache capacity %d != controller target %d", n, lc.Capacity(), d.TargetBytes)
			}
			if got, want := comp.MemBytes(), d.TargetBytes*replicas; got != want {
				t.Errorf("op %d: metered memory %d != target %d × %d replicas", n, got, d.TargetBytes, replicas)
			}
			if gauge.Value() != d.TargetBytes {
				t.Errorf("op %d: elastic.target_bytes gauge %d != target %d", n, gauge.Value(), d.TargetBytes)
			}
		},
	}
	if _, err := RunExperimentCfg(svc, m, gen, rc); err != nil {
		t.Fatal(err)
	}
	if checks == 0 {
		t.Fatal("controller never ticked")
	}
	if resizes == 0 {
		t.Fatal("a cache provisioned at 100% of the working set must shrink under 40x memory price")
	}
	if lc.Capacity() >= ws {
		t.Fatalf("capacity %d did not come down from the oversized start %d", lc.Capacity(), ws)
	}
}
