package cachecost_test

// Chaos integration tests: the fault layer injected into real component
// wirings — the in-process experiment assembly used by costbench, and the
// full TCP cluster — asserting the paper's availability claim end to end:
// cache-tier faults degrade cost and hit ratio, never correctness.

import (
	"bytes"
	"fmt"
	"testing"

	"cachecost/internal/core"
	"cachecost/internal/fault"
	"cachecost/internal/meter"
	"cachecost/internal/remotecache"
	"cachecost/internal/rpc"
	"cachecost/internal/storage"
	"cachecost/internal/workload"
)

// TestChaosAcceptance is the issue's headline bar, run through the same
// cells as `costbench chaos`: with a 10% cache-node error rate plus a
// kill/revive window, Remote and Linked complete with zero client-visible
// errors, a nonzero degradation counter, and a cost per million requests
// between the fault-free value and Base's.
func TestChaosAcceptance(t *testing.T) {
	o := core.FigOptions{Ops: 1500, Warmup: 500, Keys: 800, Tables: 50, Seed: 3, AppReplicas: 3}
	wcfg := workload.SyntheticConfig{Keys: o.Keys, Alpha: 1.2, ReadRatio: 0.9, ValueSize: 1 << 10, Seed: o.Seed}

	base, err := o.ChaosCell(core.ChaosConfig{Arch: core.Base}, wcfg)
	if err != nil {
		t.Fatalf("base cell: %v", err)
	}
	for _, arch := range []core.Arch{core.Remote, core.Linked} {
		t.Run(arch.String(), func(t *testing.T) {
			free, err := o.ChaosCell(core.ChaosConfig{Arch: arch}, wcfg)
			if err != nil {
				t.Fatalf("fault-free cell: %v", err)
			}
			// ChaosCell surfaces any request failure as err: nil means the
			// service answered all 2000 driven ops.
			chaos, err := o.ChaosCell(core.ChaosConfig{
				Arch: arch, ErrorRate: 0.10, KillWindow: true,
			}, wcfg)
			if err != nil {
				t.Fatalf("10%% fault cell had a client-visible error: %v", err)
			}
			if chaos.Path.Degraded == 0 {
				t.Error("degradation counter stayed zero under 10% faults")
			}
			if chaos.HitRatio >= free.HitRatio {
				t.Errorf("hit ratio did not degrade: %v faulty vs %v fault-free", chaos.HitRatio, free.HitRatio)
			}
			// The cost bar, with slack for wall-clock noise in the cheap
			// direction only: faults must not make the tier cheaper, and
			// must not cost more than having no cache tier at all.
			if chaos.CostPerMReq < free.CostPerMReq*0.95 {
				t.Errorf("cost/Mreq %v fell below the fault-free value %v", chaos.CostPerMReq, free.CostPerMReq)
			}
			if chaos.CostPerMReq > base.CostPerMReq {
				t.Errorf("cost/Mreq %v at 10%% faults exceeded Base's %v", chaos.CostPerMReq, base.CostPerMReq)
			}
		})
	}
}

// TestChaosClusterOverTCP wires the Remote architecture's processes over
// real sockets with the fault layer around the cache connection, kills
// the cache node mid-run, and requires every front-door request to keep
// succeeding with correct values.
func TestChaosClusterOverTCP(t *testing.T) {
	storeMeter := meter.NewMeter()
	node := storage.NewNode(storage.Config{
		Replicas:        3,
		BlockCacheBytes: 8 << 20,
		Meter:           storeMeter,
	})
	storeAddr := listen(t, node.Server())

	cacheSrv := remotecache.NewServer(remotecache.ServerConfig{CapacityBytes: 8 << 20})
	cacheAddr := listen(t, cacheSrv.RPCServer())

	appMeter := meter.NewMeter()
	inj := fault.New(5, appMeter)
	dbConn, err := rpc.Dial(storeAddr, appMeter.Component("app"), meter.NewBurner(), rpc.DefaultCost)
	if err != nil {
		t.Fatal(err)
	}
	cacheConn, err := rpc.Dial(cacheAddr, appMeter.Component("app"), meter.NewBurner(), rpc.DefaultCost)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := core.NewKVServiceRemote(core.ServiceConfig{
		Arch:   core.Remote,
		Meter:  appMeter,
		Faults: inj,
	}, core.RemoteEndpoints{DB: dbConn, Cache: cacheConn})
	if err != nil {
		t.Fatal(err)
	}
	inj.SetRule(core.CacheNode, fault.Rule{ErrorRate: 0.2, StallWork: 512, StallRate: 1})

	const keys = 60
	items := make([]core.PreloadItem, keys)
	for i := range items {
		items[i] = core.PreloadItem{Key: workload.KeyName(i), Size: 512}
	}
	if err := svc.Preload(items); err != nil {
		t.Fatal(err)
	}

	appAddr := listen(t, svc.Front())
	client, err := rpc.Dial(appAddr, nil, nil, rpc.CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	app := core.NewAppClient(client, nil)

	read := func(i int) error {
		key := workload.KeyName(i % keys)
		got, err := app.Read(key)
		if err != nil {
			return fmt.Errorf("read %s: %w", key, err)
		}
		if !bytes.Equal(got, core.Digest(core.ValueFor(key, 512))) {
			return fmt.Errorf("digest mismatch for %s under faults", key)
		}
		return nil
	}

	// Flaky cache → kill → revive, with reads throughout. Each request's
	// lane closes before its response is written, so the path counts are
	// exact between phases.
	for i := 0; i < 150; i++ {
		if err := read(i); err != nil {
			t.Fatalf("flaky phase: %v", err)
		}
	}
	if appMeter.Path().Faults == 0 {
		t.Error("flaky phase: the fault layer injected nothing")
	}
	inj.Kill(core.CacheNode)
	faultComp := appMeter.Component("fault")
	faults, burns := appMeter.Path().Faults, faultComp.Ops()
	for i := 0; i < 150; i++ {
		if err := read(i); err != nil {
			t.Fatalf("cache-down phase: %v", err)
		}
	}
	// A killed node rejects before its rule draws, so this phase's only
	// faults are kill rejects: they count, and burn no stall work.
	if appMeter.Path().Faults == faults {
		t.Error("cache-down phase: the kill rejected no call")
	}
	if faultComp.Ops() != burns {
		t.Errorf("cache-down phase: %d calls reached the node's rule", faultComp.Ops()-burns)
	}
	inj.Revive(core.CacheNode)
	for i := 0; i < 150; i++ {
		if err := read(i); err != nil {
			t.Fatalf("healed phase: %v", err)
		}
	}

	if appMeter.Path().Degraded == 0 {
		t.Error("no degradations recorded despite injected faults")
	}
	if appMeter.Path().Retries == 0 {
		t.Error("retry layer never retried a call despite injected errors")
	}
}
