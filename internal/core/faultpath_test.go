package core

import (
	"bytes"
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
// retry, a request expired on arrival — is counted once, on the request's
// lane, and every reader takes it from Meter.Path: the chaos cells'
// counts, the telemetry bridge, the expired requests' missing work and
// the flight recorder's outcome flags all agree.
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

	t.Run("deadline", func(t *testing.T) {
		// A request that reaches the front door past its deadline is
		// answered without work: the read finds nothing, the write is not
		// applied, and each is counted once as Path.Deadline.
		for _, arch := range []Arch{Base, Remote} {
			m := meter.NewMeter()
			svc, err := BuildKVService(smallCfg(arch, m), smallGen(3))
			if err != nil {
				t.Fatal(err)
			}
			key := workload.KeyName(0)
			old, err := svc.Read(key)
			if err != nil {
				t.Fatal(err)
			}
			m.Reset()
			past := time.Now().Add(-time.Second)
			got, err := svc.ReadDeadline(key, past)
			if err != nil || len(got) != 0 {
				t.Errorf("%v: expired read = %x, %v; want an empty digest", arch, got, err)
			}
			if err := svc.WriteDeadline(key, ValueFor("other", 64), past); err != nil {
				t.Errorf("%v: expired write: %v", arch, err)
			}
			p := m.Path()
			if p.Deadline != 2 || p.Requests != 2 || p.SQLStatements != 0 || p.CacheMsgs != 0 {
				t.Errorf("%v: Path after two expired requests = %+v; want Deadline 2, Requests 2, no statements or cache messages", arch, p)
			}
			if now, err := svc.Read(key); err != nil || !bytes.Equal(now, old) {
				t.Errorf("%v: read after the expired write = %x, %v; want the old digest %x", arch, now, err, old)
			}
		}
	})

	t.Run("flight", func(t *testing.T) {
		rec := flight.New(flight.Config{})
		m := meter.NewMeter()
		inj := fault.New(1, m)
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
