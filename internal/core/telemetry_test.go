package core

import (
	"testing"

	"cachecost/internal/meter"
	"cachecost/internal/telemetry"
)

// findHist returns the run's histogram digest for name, summed across
// label variants (e.g. the per-stmt storage latency family).
func findHists(res *RunResult, name string) (count int64, found bool) {
	for _, h := range res.Hists {
		if h.Name == name {
			count += h.Count
			found = true
		}
	}
	return count, found
}

// TestRunTelemetryConservation cross-checks the histogram plane against
// the exact counting planes that already exist: the request-latency
// histogram must hold exactly one observation per metered op, and the
// storage statement-latency family must agree with the meter's exact
// per-request SQL statement counts. If these drift, the telemetry
// layer is dropping or double-counting observations.
func TestRunTelemetryConservation(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := meter.NewMeter()
	gen := smallGen(7)
	cfg := smallCfg(Remote, m)
	cfg.Telemetry = reg
	svc, err := BuildKVService(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	const ops = 900
	res, err := RunExperimentCfg(svc, m, gen, RunConfig{
		Warmup: 300, Ops: ops, Prices: meter.GCP, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hists) == 0 {
		t.Fatal("RunResult.Hists is empty with a telemetry registry configured")
	}
	reqCount, ok := findHists(res, "request.latency")
	if !ok {
		t.Fatal("no request.latency histogram in RunResult.Hists")
	}
	if reqCount != ops {
		t.Fatalf("request.latency count = %d, want exactly %d (one observation per metered op)", reqCount, ops)
	}
	stmtCount, ok := findHists(res, "storage.stmt.latency")
	if !ok {
		t.Fatal("no storage.stmt.latency histograms in RunResult.Hists")
	}
	if stmtCount != res.Path.SQLStatements {
		t.Fatalf("storage.stmt.latency count = %d, the path counted %d SQL statements", stmtCount, res.Path.SQLStatements)
	}
	if _, ok := findHists(res, "rpc.msg.latency"); !ok {
		t.Fatal("no rpc.msg.latency histograms: transports are not feeding the registry")
	}
}

// TestTelemetryParallelismInvariance is the acceptance check for the
// histogram plane's accuracy: at parallelism 1 and 4, the p99 the
// log-bucketed histogram reports must track the exactly-computed sample
// p99 (RunResult.LatencyP99, sorted per-op samples) within 5% — the
// bucketing's worst-case relative error is 1/32, so drift beyond that
// band means merged shards lost or misplaced observations.
func TestTelemetryParallelismInvariance(t *testing.T) {
	if raceEnabled {
		t.Skip("latency distributions are distorted by race-detector instrumentation")
	}
	for _, par := range []int{1, 4} {
		reg := telemetry.NewRegistry()
		m := meter.NewMeter()
		gen := smallGen(11)
		cfg := smallCfg(Remote, m)
		cfg.Parallelism = par
		cfg.Telemetry = reg
		svc, err := BuildKVService(cfg, gen)
		if err != nil {
			t.Fatal(err)
		}
		const ops = 2400
		res, err := RunExperimentCfg(svc, m, gen, RunConfig{
			Warmup: 400, Ops: ops, Parallelism: par, Prices: meter.GCP, Telemetry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		var req *telemetry.HistSummary
		for i := range res.Hists {
			if res.Hists[i].Name == "request.latency" {
				req = &res.Hists[i]
			}
		}
		if req == nil {
			t.Fatalf("P%d: no request.latency histogram", par)
		}
		if req.Count != ops {
			t.Fatalf("P%d: histogram count = %d, want %d", par, req.Count, ops)
		}
		exact := float64(res.LatencyP99)
		reported := float64(req.P99)
		drift := (reported - exact) / exact
		if drift < 0 {
			drift = -drift
		}
		if drift > 0.05 {
			t.Fatalf("P%d: histogram p99 %v vs exact sample p99 %v: drift %.1f%% > 5%%",
				par, req.P99, res.LatencyP99, 100*drift)
		}
	}
}
