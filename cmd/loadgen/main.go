// Command loadgen drives an appserver with one of the paper's workloads
// over real sockets and reports throughput and latency percentiles. It is
// the experiment driver's socket caller: it dials one connection per lane,
// hands each to a core.AppClient and runs core.Drive — the same lanes,
// dealing, pacing and clocks every in-process figure runs on.
//
// The default mode is closed-loop: N lanes, each issuing its next op when
// the last returns. With -arrival it switches to open-loop: a deterministic
// seeded schedule fixes every op's intended arrival before the run, a
// dispatcher releases ops at those instants into bounded per-lane queues
// (a full queue sheds client-side), and latency is reported against BOTH
// clocks — the intended arrival (coordinated-omission-free) and the send
// instant (the closed-loop blind spot, shown for contrast). The run stops
// at the first failed op and exits 1 naming it.
//
//	loadgen -target localhost:7001 -workload synthetic -ops 50000 -concurrency 8
//	loadgen -target localhost:7001 -arrival poisson -rate 20000 -slo 10ms -ops 50000
//	loadgen -target localhost:7001 -trace trace.bin -ops 50000
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"cachecost/internal/core"
	"cachecost/internal/rpc"
	"cachecost/internal/telemetry"
	"cachecost/internal/trace"
	"cachecost/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is loadgen with its arguments and output streams injected: it
// returns 2 when the flags do not parse, 1 on any other failure, 0
// otherwise.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		target      = fs.String("target", "localhost:7001", "appserver address")
		wl          = fs.String("workload", "synthetic", "workload: synthetic|meta")
		keys        = fs.Int("keys", 2000, "key population (must match appserver preload)")
		readRatio   = fs.Float64("readratio", 0.9, "read fraction (synthetic)")
		alpha       = fs.Float64("alpha", 1.2, "zipfian skew")
		valueSize   = fs.Int("valuesize", 1024, "value size (synthetic)")
		ops         = fs.Int("ops", 20000, "operations to issue")
		concurrency = fs.Int("concurrency", 8, "concurrent workers")
		seed        = fs.Int64("seed", 1, "workload seed")
		traceFile   = fs.String("trace", "", "replay a recorded trace (see cmd/tracegen)")
		metrics     = fs.String("metrics", "", "serve /metrics, /metrics.json, /statusz and /debug/pprof on this address")
		arrival     = fs.String("arrival", "", "open-loop arrival process: poisson|bursty|diurnal (empty = closed loop)")
		rate        = fs.Float64("rate", 0, "open-loop mean offered rate in ops/sec (required with -arrival)")
		slo         = fs.Duration("slo", 0, "open-loop per-op latency budget, propagated as a deadline (0 = none)")
		laneDepth   = fs.Int("lanedepth", 1024, "open-loop bound on each worker's queue; arrivals past it are shed client-side")
		sample      = fs.Int("sample", 64, "stamp a wire trace id on 1 in N ops, for the appserver's /debug/requests exemplars to carry (0 = off)")
		logfmt      = fs.String("logfmt", "text", "log format: text|json")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return 1
	}
	logger, err := telemetry.NewLogger(*logfmt, "loadgen")
	if err != nil {
		return fail(err)
	}

	// Per-op latency feeds the registry's request.latency histogram, so a
	// scrape mid-run reports live percentiles; the lanes' connections feed
	// per-message rpc metrics.
	reg := telemetry.NewRegistry()
	// Fail startup on a bad -metrics address, before issuing any load.
	if *metrics != "" {
		msrv, err := telemetry.StartOps(*metrics, telemetry.OpsConfig{Registry: reg})
		if err != nil {
			return fail(fmt.Errorf("-metrics: %w", err))
		}
		defer msrv.Close()
		logger.Info("serving metrics", "url", "http://"+msrv.Addr+"/metrics")
	}
	gen, err := generator(*traceFile, *wl, *keys, *alpha, *readRatio, *valueSize, *seed)
	if err != nil {
		return fail(err)
	}
	cfg := core.RunConfig{Ops: *ops, Telemetry: reg, SLO: *slo, LaneDepth: *laneDepth}
	var tracer *trace.Tracer
	if *sample > 0 {
		// A sampling tracer opens every request's root span: 1 in N carries
		// a trace id on the wire, which the server joins and its flight
		// recorder stamps on any exemplar the request earns.
		tracer = trace.New(trace.Config{SampleEvery: *sample, Capacity: 1})
	}
	if *arrival != "" {
		proc, err := workload.ParseArrivalProcess(*arrival)
		if err != nil {
			return fail(fmt.Errorf("-arrival: %w", err))
		}
		if *rate <= 0 {
			return fail(errors.New("-arrival requires a positive -rate"))
		}
		cfg.Arrival = &workload.ArrivalConfig{Process: proc, Rate: *rate, Seed: *seed}
	}

	connMetrics := rpc.NewMetrics(reg, "tcp")
	workers := make([]core.ServiceWorker, max(*concurrency, 1))
	for i := range workers {
		c, err := rpc.Dial(*target, nil, nil, rpc.CostModel{})
		if err != nil {
			return fail(fmt.Errorf("dial %s: %w", *target, err))
		}
		c.SetMetrics(connMetrics)
		defer c.Close()
		workers[i] = core.NewAppClient(c, tracer)
	}
	res, err := core.Drive(workers, gen, cfg)
	if err != nil {
		return fail(err)
	}
	report(stdout, res, *ops)
	return 0
}

// generator builds the op stream: a recorded trace when one is given, else
// the named synthetic workload.
func generator(traceFile, wl string, keys int, alpha, readRatio float64, valueSize int, seed int64) (workload.Generator, error) {
	if traceFile != "" {
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return workload.ReadTrace(f)
	}
	switch wl {
	case "synthetic":
		return workload.NewSynthetic(workload.SyntheticConfig{
			Keys: keys, Alpha: alpha, ReadRatio: readRatio, ValueSize: valueSize, Seed: seed,
		}), nil
	case "meta":
		return workload.NewMetaKV(workload.MetaKVConfig{Keys: keys, Seed: seed}), nil
	}
	return nil, fmt.Errorf("unknown workload %q (synthetic|meta)", wl)
}

// report prints the run. Latency p50/p99 are the driver's exact
// percentiles; p90 and max come from the request.latency histogram digest
// (quantile error ≤ 3.1%), which observes the same clock: the intended
// arrival under open loop, the send instant under closed loop.
func report(w io.Writer, res *core.RunResult, offered int) {
	var h telemetry.HistSummary
	for _, s := range res.Hists {
		if s.Name == "request.latency" {
			h = s
		}
	}
	arrival := res.Arrival
	if arrival == "" {
		arrival = "closed"
	}
	fmt.Fprintf(w, "workload=%s arrival=%s offered=%d executed=%d client_shed=%d wall=%v\n",
		res.Workload, arrival, offered, res.Ops, res.ClientShed, res.Wall.Round(time.Millisecond))
	if res.Arrival == "" {
		fmt.Fprintf(w, "throughput: %.0f ops/s\n", res.Throughput)
		fmt.Fprintf(w, "latency: p50=%v p90=%v p99=%v max=%v\n",
			res.LatencyP50, time.Duration(h.P90), res.LatencyP99, time.Duration(h.Max))
		return
	}
	fmt.Fprintf(w, "offered rate: %.0f ops/s (schedule span %v)\n", res.OfferedQPS, res.ScheduleSpan.Round(time.Millisecond))
	fmt.Fprintf(w, "throughput: %.0f ops/s (executed / schedule span)\n", res.Throughput)
	fmt.Fprintf(w, "latency (intended-arrival clock, CO-free): p50=%v p90=%v p99=%v max=%v\n",
		res.LatencyP50, time.Duration(h.P90), res.LatencyP99, time.Duration(h.Max))
	fmt.Fprintf(w, "latency (send clock, for contrast):        p50=%v p99=%v\n",
		res.SendLatencyP50, res.SendLatencyP99)
}
