package core

import (
	"reflect"
	"testing"
	"time"

	"cachecost/internal/fault"
	"cachecost/internal/flight"
	"cachecost/internal/meter"
	"cachecost/internal/telemetry"
	"cachecost/internal/workload"
)

// TestPathCountsFaultEvents: each fault-path event — a cache demotion, a
// retry, an admission shed, an expired deadline — is counted once, on the
// request's lane, and every reader takes it from Meter.Path: the chaos
// cells' counts, the telemetry bridge, the gate's own tally and the flight
// recorder's outcome flags all agree.
func TestPathCountsFaultEvents(t *testing.T) {
	t.Run("chaos", func(t *testing.T) {
		// The counts the same cells reported through the meter's named
		// counters before the lane carried them.
		want := map[Arch][2]int64{Remote: {238, 83}, Linked: {163, 0}}
		reg := telemetry.NewRegistry()
		o := FigOptions{Ops: 600, Warmup: 200, Keys: 300, Seed: 7, Telemetry: reg}
		wcfg := workload.SyntheticConfig{Keys: 300, Alpha: 1.2, ReadRatio: 0.9, ValueSize: 256, Seed: 7}
		for _, arch := range []Arch{Remote, Linked} {
			res, err := o.ChaosCell(ChaosConfig{Arch: arch, ErrorRate: 0.1, KillWindow: true}, wcfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := [2]int64{res.Path.Degraded, res.Path.Retries}; got != want[arch] {
				t.Errorf("%v: Path.Degraded, Path.Retries = %v, want %v", arch, got, want[arch])
			}
			// The bridge publishes the cell's meter: one meter.path sample
			// per PathStats field, each equal to the field.
			p := reflect.ValueOf(res.Path)
			seen := 0
			for _, c := range reg.Snapshot().Counters {
				if c.Name != "meter.path" {
					continue
				}
				seen++
				if f := p.FieldByName(c.Labels[0].Value); !f.IsValid() || float64(f.Int()) != c.Value {
					t.Errorf("%v: meter.path{count=%s} = %v, Path has %v", arch, c.Labels[0].Value, c.Value, f)
				}
			}
			if seen != p.NumField() {
				t.Errorf("%v: %d meter.path samples, want one per PathStats field (%d)", arch, seen, p.NumField())
			}
		}
	})

	t.Run("admission", func(t *testing.T) {
		m := meter.NewMeter()
		gen := smallGen(3)
		cfg := smallCfg(Base, m)
		cfg.Parallelism = 4
		cfg.Admission = &AdmissionConfig{MaxInflight: 1, QueueDepth: 1}
		svc, err := BuildKVService(cfg, gen)
		if err != nil {
			t.Fatal(err)
		}
		// The test holds the one slot, so the cell is past saturation
		// whatever the machine: the request that takes the queue place
		// waits out its deadline (expired), and every request arriving
		// meanwhile finds the queue full (shed). No warmup, so the gate's
		// lifetime tally is the metered window's.
		_, release := svc.gate.Enter(time.Time{})
		defer release()
		res, err := RunExperimentCfg(svc, m, gen, RunConfig{
			Ops: 200, Parallelism: 4, Prices: meter.GCP,
			Arrival: &workload.ArrivalConfig{Process: workload.ArrivalPoisson, Rate: 20000, Seed: 3},
			SLO:     2 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		st := svc.gate.Stats()
		if res.Path.Shed != st.Shed || res.Path.Deadline != st.Expired {
			t.Errorf("Path.Shed, Path.Deadline = %d, %d; the gate counted %d shed, %d expired",
				res.Path.Shed, res.Path.Deadline, st.Shed, st.Expired)
		}
		if res.Path.Shed == 0 || res.Path.Deadline == 0 {
			t.Errorf("Path.Shed = %d, Path.Deadline = %d: the held slot did not both shed and expire", res.Path.Shed, res.Path.Deadline)
		}
	})

	t.Run("flight", func(t *testing.T) {
		rec := flight.New(flight.Config{})
		m := meter.NewMeter()
		inj := fault.New(1, fault.Options{Meter: m})
		cfg := smallCfg(Remote, m)
		cfg.Faults, cfg.Flight = inj, rec
		svc, err := BuildKVService(cfg, smallGen(1))
		if err != nil {
			t.Fatal(err)
		}
		key := workload.KeyName(0)
		if err := svc.Write(key, ValueFor(key, 64)); err != nil {
			t.Fatal(err)
		}
		inj.Kill(CacheNode)
		rec.Reset()
		if _, err := svc.Read(key); err != nil {
			t.Fatal(err)
		}
		ex := rec.Exemplars().Degraded
		if len(ex) != 1 || ex[0].Flags&meter.FlagDegraded == 0 || ex[0].Method != "app.Read" {
			t.Fatalf("degraded exemplars after one read of a dead cache: %+v", ex)
		}
	})
}
