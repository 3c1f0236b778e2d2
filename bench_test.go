package cachecost_test

// One benchmark per paper table/figure, plus a few that isolate one
// mechanism. Figure benchmarks regenerate the figure's rows at reduced
// scale each iteration and report the headline number as a custom metric;
// run them with
//
//	go test -bench=. -benchmem
//
// and see cmd/costbench for full-scale regeneration. Per-architecture
// request cost is the repository benchmark's job (bench/, BENCHMARK.json).

import (
	"testing"
	"time"

	"cachecost/internal/core"
	"cachecost/internal/flight"
	"cachecost/internal/meter"
	"cachecost/internal/trace"
	"cachecost/internal/workload"
)

func benchOpts() core.FigOptions {
	return core.FigOptions{Ops: 400, Warmup: 150, Keys: 300, Tables: 60, Seed: 1}
}

// benchFigure regenerates one figure per iteration.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	fig, err := core.FigureByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var rows int
	for i := 0; i < b.N; i++ {
		tab, err := fig.Run(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		rows = len(tab.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkFig2a(b *testing.B)       { benchFigure(b, "fig2a") }
func BenchmarkFig2b(b *testing.B)       { benchFigure(b, "fig2b") }
func BenchmarkFig3(b *testing.B)        { benchFigure(b, "fig3") }
func BenchmarkFig4a(b *testing.B)       { benchFigure(b, "fig4a") }
func BenchmarkFig4b(b *testing.B)       { benchFigure(b, "fig4b") }
func BenchmarkFig5a(b *testing.B)       { benchFigure(b, "fig5a") }
func BenchmarkFig5b(b *testing.B)       { benchFigure(b, "fig5b") }
func BenchmarkFig6(b *testing.B)        { benchFigure(b, "fig6") }
func BenchmarkFig7(b *testing.B)        { benchFigure(b, "fig7") }
func BenchmarkFig8(b *testing.B)        { benchFigure(b, "fig8") }
func BenchmarkConsistency(b *testing.B) { benchFigure(b, "consistency") }
func BenchmarkMarginal(b *testing.B)    { benchFigure(b, "marginal") }

// BenchmarkVersionCheck isolates the §5.5 cost: the storage-side price of
// one consistency version check.
func BenchmarkVersionCheck(b *testing.B) {
	m := meter.NewMeter()
	gen := workload.NewSynthetic(workload.SyntheticConfig{Keys: 300, ValueSize: 1 << 10, Seed: 1})
	svc, err := core.BuildKVService(core.ServiceConfig{
		Arch:  core.LinkedVersion,
		Meter: m,
	}, gen)
	if err != nil {
		b.Fatal(err)
	}
	key := workload.KeyName(1)
	svc.Read(key) // warm: subsequent reads are pure version checks
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Read(key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOwnershipConsistent isolates the §6 design: consistent reads
// without the per-read check.
func BenchmarkOwnershipConsistent(b *testing.B) {
	m := meter.NewMeter()
	gen := workload.NewSynthetic(workload.SyntheticConfig{Keys: 300, ValueSize: 1 << 10, Seed: 1})
	svc, err := core.BuildKVService(core.ServiceConfig{
		Arch:  core.LinkedOwned,
		Meter: m,
	}, gen)
	if err != nil {
		b.Fatal(err)
	}
	key := workload.KeyName(1)
	svc.Read(key)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Read(key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlightUnsampledFastPath measures the flight recorder's
// per-request overhead for ordinary traffic: a completion that is
// neither slow nor a bad outcome must stay 0 allocs/op (run with
// -benchmem; TestFastPathZeroAllocs in internal/flight pins the same
// property as a hard assertion).
func BenchmarkFlightUnsampledFastPath(b *testing.B) {
	rec := flight.New(flight.Config{SlowestK: 4, RingSize: 1024})
	start := time.Now()
	// Park the retention threshold far above the benchmarked requests.
	for i := 0; i < 8; i++ {
		sc := rec.Begin(trace.SpanContext{})
		rec.Done(sc, "Bench", "bench.Op", start, time.Second, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := rec.Begin(trace.SpanContext{})
		rec.Done(sc, "Bench", "bench.Op", start, time.Microsecond, nil)
	}
}

// BenchmarkModelEvaluation measures the analytic model itself (used
// inside optimizers and sweeps).
func BenchmarkModelEvaluation(b *testing.B) {
	m := core.DefaultModel(1.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.TotalCost(float64(i%16)*float64(1<<30), 1<<30)
	}
}

// BenchmarkRichObjectRead measures a full 8-query getTable against the
// governance schema (the §5.4 read path), per operation.
func BenchmarkRichObjectRead(b *testing.B) {
	m := meter.NewMeter()
	gen := workload.NewUnity(workload.UnityConfig{Tables: 60, Seed: 1})
	svc, err := core.NewCatalogService(core.CatalogServiceConfig{
		ServiceConfig: core.ServiceConfig{Arch: core.Base, Meter: m},
		Mode:          core.ModeObject,
		Tables:        60,
		StatsBytes:    8 << 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := gen.Next()
		if _, err := svc.Read(op.Key); err != nil {
			b.Fatal(err)
		}
	}
}
