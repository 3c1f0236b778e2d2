package core

import (
	"testing"
	"time"

	"cachecost/internal/meter"
	"cachecost/internal/workload"
)

// TestMeteringConservation checks the central invariant of the costing
// methodology: with a single-threaded driver, the busy time attributed
// across ALL components never exceeds the wall time of the metered
// window (no double counting), and covers most of it (no large blind
// spots) — otherwise the dollar figures would be fabricated.
func TestMeteringConservation(t *testing.T) {
	if raceEnabled {
		t.Skip("measured cost ratios are distorted by race-detector instrumentation")
	}
	for _, arch := range []Arch{Base, Remote, Linked, LinkedVersion} {
		t.Run(arch.String(), func(t *testing.T) {
			m := meter.NewMeter()
			gen := smallGen(13)
			svc, err := BuildKVService(smallCfg(arch, m), gen)
			if err != nil {
				t.Fatal(err)
			}
			// Warmup, then a timed window.
			for i := 0; i < 300; i++ {
				op := gen.Next()
				if op.Kind == workload.Read {
					svc.Read(op.Key)
				} else {
					svc.Write(op.Key, ValueFor(op.Key, op.ValueSize))
				}
			}
			m.Reset()
			t0 := time.Now()
			for i := 0; i < 800; i++ {
				op := gen.Next()
				if op.Kind == workload.Read {
					if _, err := svc.Read(op.Key); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := svc.Write(op.Key, ValueFor(op.Key, op.ValueSize)); err != nil {
						t.Fatal(err)
					}
				}
			}
			elapsed := time.Since(t0)
			busy := m.TotalBusy()
			if busy > elapsed*105/100 {
				t.Fatalf("attributed busy %v exceeds wall %v: double counting", busy, elapsed)
			}
			if busy < elapsed*40/100 {
				t.Fatalf("attributed busy %v is under 40%% of wall %v: blind spots", busy, elapsed)
			}
		})
	}
}

// TestMeteredOpsUnchanged pins how many operations each component meters
// over a fixed 1 000-op stream: one per transport charge, per front-end
// burn, per replication ship or lease check, per handler section. The
// numbers were taken before metering moved onto lanes; with the wire
// formats untouched, equal counts mean the Burner was handed the same
// units (a scratch run with a counting Burner read 92 233 236, 61 079 484
// and 33 484 584 units on both sides), so what the lane removed is
// measuring overhead, not measured work.
func TestMeteredOpsUnchanged(t *testing.T) {
	want := map[Arch]map[string]int64{
		Base:   {"app": 5000, "storage.exec": 1216, "storage.kv": 3340, "storage.raft": 1108, "storage.rpc": 2000, "storage.sql": 3324},
		Remote: {"app": 6144, "remotecache": 3696, "storage.exec": 556, "storage.kv": 2680, "storage.raft": 448, "storage.rpc": 680, "storage.sql": 1344},
		Linked: {"app": 3542, "app.cache": 0, "storage.exec": 487, "storage.kv": 2611, "storage.raft": 379, "storage.rpc": 542, "storage.sql": 1137},
	}
	for arch, ops := range want {
		t.Run(arch.String(), func(t *testing.T) {
			m := meter.NewMeter()
			gen := smallGen(13)
			svc, err := BuildKVService(smallCfg(arch, m), gen)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 1000; i++ {
				op := gen.Next()
				if op.Kind == workload.Read {
					_, err = svc.Read(op.Key)
				} else {
					err = svc.Write(op.Key, ValueFor(op.Key, op.ValueSize))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			snap := m.Snapshot()
			if len(snap) != len(ops) {
				t.Errorf("components = %v, want %d of them", snap, len(ops))
			}
			for _, c := range snap {
				if c.Ops != ops[c.Name] {
					t.Errorf("%s: %d ops, want %d", c.Name, c.Ops, ops[c.Name])
				}
			}
		})
	}
}

// TestLinkedHitAllocs pins what a warmed-key request allocates on the
// three benchmarked architectures. The Linked hit is the front-door
// framing alone — the key it decodes and the digest it returns. The rest
// are the counts taken before architectures became tier values: a tier
// call crosses an interface, so anything handed through it that is built
// per request (a closure over the storage statement, say) escapes to the
// heap and shows up here as +1.
func TestLinkedHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	for _, tc := range []struct {
		arch        Arch
		read, write float64
	}{
		{Base, 42, 161},
		{Remote, 6, 166},
		{Linked, 2, 161},
	} {
		t.Run(tc.arch.String(), func(t *testing.T) {
			gen := smallGen(13)
			svc, err := BuildKVService(smallCfg(tc.arch, meter.NewMeter()), gen)
			if err != nil {
				t.Fatal(err)
			}
			key := workload.KeyName(3)
			value := ValueFor(key, 2048)
			if _, err := svc.Read(key); err != nil { // fill
				t.Fatal(err)
			}
			reads := testing.AllocsPerRun(1000, func() {
				if _, err := svc.Read(key); err != nil {
					panic(err)
				}
			})
			if reads > tc.read {
				t.Errorf("warmed read allocates %.1f per op, want <= %v", reads, tc.read)
			}
			writes := testing.AllocsPerRun(200, func() {
				if err := svc.Write(key, value); err != nil {
					panic(err)
				}
			})
			if writes > tc.write {
				t.Errorf("write allocates %.1f per op, want <= %v", writes, tc.write)
			}
		})
	}
}
