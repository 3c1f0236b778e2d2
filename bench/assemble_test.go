package main

import (
	"math"
	"runtime"
	"testing"

	"cachecost/internal/core"
	"cachecost/internal/meter"
)

// The benchmark measures what the figures run: its assembly from exported
// parts must behave like core.BuildKVService on the same op stream.
func TestAssembleMatchesBuildKVService(t *testing.T) {
	for _, arch := range []core.Arch{core.Base, core.Remote, core.Linked} {
		t.Run(arch.String(), func(t *testing.T) {
			sp := spec{
				name: "equiv", arch: arch, keys: 500, valueSize: 1 << 10, alpha: 1.2, readRatio: 0.9,
				blockFrac: 0.15, cacheFrac: 0.6, warmOps: 500, streamOps: 2000,
			}
			in, err := drawInputs(sp, 7)
			if err != nil {
				t.Fatal(err)
			}

			d, err := assemble(sp, in.items)
			if err != nil {
				t.Fatal(err)
			}
			defer d.close()
			ours := &runner{sp: sp, in: in, d: d}
			oursAllocs, bad := drive(func(op uint32) bool { return ours.do(op) }, in)
			if bad > 0 {
				t.Fatalf("%d ops failed on the benchmark's assembly", bad)
			}

			ws := workingSet(in.items)
			m := meter.NewMeter()
			svc, err := core.BuildKVService(core.ServiceConfig{
				Arch:              arch,
				Meter:             m,
				StorageCacheBytes: int64(float64(ws) * sp.blockFrac),
				AppCacheBytes:     int64(float64(ws) * sp.cacheFrac),
				RemoteCacheBytes:  int64(float64(ws) * sp.cacheFrac),
			}, newGenerator(sp, 7))
			if err != nil {
				t.Fatal(err)
			}
			theirs := &runner{sp: sp, in: in, d: &deployment{svc: svc}}
			theirAllocs, bad := drive(func(op uint32) bool { return theirs.do(op) }, in)
			if bad > 0 {
				t.Fatalf("%d ops failed on core.BuildKVService", bad)
			}

			if got, want := componentNames(d.m), componentNames(m); got != want {
				t.Errorf("meter components %s, BuildKVService has %s", got, want)
			}
			if got, want := d.svc.CacheHitRatio(), svc.CacheHitRatio(); got != want {
				t.Errorf("hit ratio %v, BuildKVService has %v", got, want)
			}
			if math.Abs(oursAllocs-theirAllocs) > 1 {
				t.Errorf("allocs/op %.2f, BuildKVService has %.2f", oursAllocs, theirAllocs)
			}
		})
	}
}

// drive runs the warm-up and then the stream through do, returning the
// stream's allocations per op and how many ops failed.
func drive(do func(op uint32) bool, in *inputs) (allocs float64, bad int) {
	for _, op := range in.warm {
		if !do(op) {
			bad++
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for _, op := range in.stream {
		if !do(op) {
			bad++
		}
	}
	runtime.ReadMemStats(&ms1)
	return float64(ms1.Mallocs-ms0.Mallocs) / float64(len(in.stream)), bad
}

func componentNames(m *meter.Meter) string {
	names := ""
	for _, c := range m.Snapshot() {
		names += c.Name + " "
	}
	return names
}
