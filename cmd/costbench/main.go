// Command costbench regenerates every table and figure of "Rethinking
// the Cost of Distributed Caches for Datacenter Services" (HotNets '25)
// against the simulated testbed in this repository.
//
// Usage:
//
//	costbench [flags] <figure>...
//	costbench [flags] all
//	costbench list
//
// `costbench list` prints every figure id with its title.
//
// The default scale finishes in tens of seconds; raise -ops / -keys /
// -tables to tighten estimates at the cost of runtime.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"cachecost/internal/core"
	"cachecost/internal/flight"
	"cachecost/internal/meter"
	"cachecost/internal/telemetry"
	"cachecost/internal/trace"
	"cachecost/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// parseBatchSizes parses the -batchsizes flag: a comma-separated list of
// positive batch sizes.
func parseBatchSizes(s string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("batch sizes must be positive integers")
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("no batch sizes given")
	}
	return sizes, nil
}

// parseLoads parses the -offered flag: a comma-separated list of
// positive offered-load multipliers.
func parseLoads(s string) ([]float64, error) {
	var loads []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("offered-load multipliers must be positive numbers")
		}
		loads = append(loads, v)
	}
	if len(loads) == 0 {
		return nil, fmt.Errorf("no offered-load multipliers given")
	}
	return loads, nil
}

// createOutput opens path for writing, verifying up front that the path
// is writable so a misspelled directory fails the run instead of
// silently discarding the results.
func createOutput(path string) (io.WriteCloser, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cannot write output: %w", err)
	}
	return f, nil
}

// run is main's testable body: it parses argv, regenerates the requested
// figures and returns the process exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("costbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		ops         = fs.Int("ops", 3000, "metered operations per experiment cell")
		warmup      = fs.Int("warmup", 1000, "unmetered warmup operations per cell")
		keys        = fs.Int("keys", 2000, "synthetic key population (paper: 100000)")
		tables      = fs.Int("tables", 300, "catalog table population")
		seed        = fs.Int64("seed", 1, "workload seed")
		replicas    = fs.Int("appreplicas", 3, "application servers carrying the linked cache")
		faultRate   = fs.Float64("faultrate", -1, "cache fault rate for the chaos figure (-1 = default sweep)")
		figure      = fs.String("figure", "", "figure to regenerate (alternative to the positional form)")
		batchSizes  = fs.String("batchsizes", "", "comma-separated batch sizes for the batch figure (default sweep: 1,2,4,8,16,32)")
		parallelism = fs.Int("parallelism", 1, "concurrent driver workers per experiment cell")
		jsonOut     = fs.Bool("json", false, "emit tables as a JSON array instead of text")
		outPath     = fs.String("out", "", "write table output to this file instead of stdout")
		tracePath   = fs.String("trace", "", "trace every cell and write the sampled traces as Chrome trace-event JSON to this file")
		traceSample = fs.Int("tracesample", 1, "with -trace, record spans for 1 in N requests")
		traceBuf    = fs.Int("tracebuf", 64, "with -trace, retain the last N completed traces")
		offered     = fs.String("offered", "", "comma-separated offered-load multipliers of closed-loop capacity for the overload figure (default sweep: 0.3,0.6,1.5,3)")
		slo         = fs.Duration("slo", 0, "per-request latency budget for the overload figure (0 = derive from the capacity probe)")
		arrival     = fs.String("arrival", "", "arrival process for the overload figure: poisson, bursty or diurnal (default poisson)")
		metricsAddr = fs.String("metrics", "", "serve /metrics, /metrics.json, /statusz, /debug/pprof and /debug/requests on this address while figures run")
		snapPath    = fs.String("snapshot", "", "append timestamped telemetry deltas to this JSONL file while figures run")
		snapIvl     = fs.Duration("snapshot-interval", time.Second, "with -snapshot, the recording interval")
		dumpDir     = fs.String("flightdump", "", "run the SLO burn-rate watchdog, writing black-box dumps under this directory")
		dumpIvl     = fs.Duration("flightdump-interval", time.Second, "with -flightdump, the watchdog's evaluation interval")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: costbench [flags] <figure>...|all|list\n\nfigures:\n")
		for _, f := range core.Figures {
			fmt.Fprintf(stderr, "  %-12s %s\n", f.ID, f.Title)
		}
		fmt.Fprintf(stderr, "\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	args := fs.Args()
	if *figure != "" {
		args = append(args, *figure)
	}
	if len(args) == 0 {
		fs.Usage()
		return 2
	}

	opts := core.FigOptions{
		Ops:         *ops,
		Warmup:      *warmup,
		Keys:        *keys,
		Tables:      *tables,
		Seed:        *seed,
		AppReplicas: *replicas,
		Parallelism: *parallelism,
	}
	if *faultRate >= 0 {
		opts.FaultRates = []float64{*faultRate}
	}
	if *batchSizes != "" {
		sizes, err := parseBatchSizes(*batchSizes)
		if err != nil {
			fmt.Fprintf(stderr, "costbench: -batchsizes %s: %v\n", *batchSizes, err)
			return 2
		}
		opts.BatchSizes = sizes
	}
	if *offered != "" {
		loads, err := parseLoads(*offered)
		if err != nil {
			fmt.Fprintf(stderr, "costbench: -offered %s: %v\n", *offered, err)
			return 2
		}
		opts.OfferedLoads = loads
	}
	opts.SLO = *slo
	if *arrival != "" {
		if _, err := workload.ParseArrivalProcess(*arrival); err != nil {
			fmt.Fprintf(stderr, "costbench: -arrival: %v\n", err)
			return 2
		}
		opts.Arrival = *arrival
	}
	// Telemetry is always on: the registry's record paths cost almost
	// nothing, and every cell's result then carries measured percentiles
	// (-json) whether or not an ops endpoint is serving.
	reg := telemetry.NewRegistry()
	opts.Telemetry = reg
	// So is the flight recorder, armed on every cell's front door: it
	// keeps no per-request state beyond the lane every request already
	// carries, and /debug/requests (with -metrics), the -flightdump
	// watchdog and the overload figure's tail_stage column read from it.
	fr := flight.New(flight.Config{CPUCoreMonthUSD: meter.GCP.CPUCoreMonth})
	opts.Flight = fr

	if args[0] == "list" {
		for _, f := range core.Figures {
			fmt.Fprintf(stdout, "%-12s %s\n", f.ID, f.Title)
		}
		return 0
	}

	var figs []core.Figure
	if args[0] == "all" {
		figs = core.Figures
	} else {
		for _, id := range args {
			f, err := core.FigureByID(id)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			figs = append(figs, f)
		}
	}

	// Open every output up front: an unwritable path must fail the run
	// before minutes of experiments, not silently discard their results.
	var tableOut io.Writer = stdout
	var outFile io.WriteCloser
	if *outPath != "" {
		f, err := createOutput(*outPath)
		if err != nil {
			fmt.Fprintf(stderr, "costbench: -out %s: %v\n", *outPath, err)
			return 1
		}
		outFile = f
		tableOut = f
	}
	var traceOut io.WriteCloser
	if *tracePath != "" {
		f, err := createOutput(*tracePath)
		if err != nil {
			fmt.Fprintf(stderr, "costbench: -trace %s: %v\n", *tracePath, err)
			return 1
		}
		defer f.Close()
		traceOut = f
		opts.Tracer = trace.New(trace.Config{SampleEvery: *traceSample, Capacity: *traceBuf})
	}

	// The ops endpoint binds before any experiment runs: a bad -metrics
	// address must fail the run up front, like an unwritable -out.
	if *metricsAddr != "" {
		srv, err := telemetry.StartOps(*metricsAddr, telemetry.OpsConfig{
			Registry: reg,
			Debug:    map[string]http.Handler{"/debug/requests": flight.Handler(fr)},
		})
		if err != nil {
			fmt.Fprintf(stderr, "costbench: -metrics %s: %v\n", *metricsAddr, err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "costbench: serving metrics on http://%s/metrics\n", srv.Addr)
	}
	if *dumpDir != "" {
		wd := flight.NewWatchdog(flight.WatchdogConfig{
			Registry: reg,
			Recorder: fr,
			Dir:      *dumpDir,
		})
		stop, done := make(chan struct{}), make(chan struct{})
		go wd.Run(*dumpIvl, stop, done)
		defer func() { close(stop); <-done }()
	}
	if *snapPath != "" {
		f, err := createOutput(*snapPath)
		if err != nil {
			fmt.Fprintf(stderr, "costbench: -snapshot %s: %v\n", *snapPath, err)
			return 1
		}
		defer f.Close()
		rec := telemetry.NewRecorder(reg, f)
		stop, done := make(chan struct{}), make(chan struct{})
		go rec.Run(*snapIvl, stop, done)
		defer func() { close(stop); <-done }()
	}

	// jsonCell is one experiment cell's full result inside a jsonTable:
	// the priced outcome plus the meter's exact path counts and the
	// telemetry registry's measured per-component latency digests.
	type jsonCell struct {
		Cell   string          `json:"cell"`
		Result *core.RunResult `json:"result"`
	}
	// jsonTable is the machine-readable form of one regenerated table.
	type jsonTable struct {
		ID          string     `json:"id"`
		Title       string     `json:"title"`
		Header      []string   `json:"header"`
		Rows        [][]string `json:"rows"`
		Notes       []string   `json:"notes,omitempty"`
		Parallelism int        `json:"parallelism"`
		ElapsedMS   int64      `json:"elapsed_ms"`
		Cells       []jsonCell `json:"cells,omitempty"`
	}
	var out []jsonTable

	for _, f := range figs {
		var cells []jsonCell
		if *jsonOut {
			opts.OnResult = func(cell string, res *core.RunResult) {
				cells = append(cells, jsonCell{Cell: cell, Result: res})
			}
		}
		t0 := time.Now()
		var table *core.Table
		var err error
		// Label the run for CPU profiles: -metrics' /debug/pprof/profile
		// samples can then be sliced by figure on this goroutine, and by
		// arch and lane on every cell's lane goroutines (closed and open
		// loop alike; a lane replaces the figure label with its own).
		pprof.Do(context.Background(), pprof.Labels("figure", f.ID), func(context.Context) {
			table, err = f.Run(opts)
		})
		if err != nil {
			fmt.Fprintf(stderr, "costbench: %s: %v\n", f.ID, err)
			return 1
		}
		elapsed := time.Since(t0)
		if *jsonOut {
			out = append(out, jsonTable{
				ID:          table.ID,
				Title:       table.Title,
				Header:      table.Header,
				Rows:        table.Rows,
				Notes:       table.Notes,
				Parallelism: *parallelism,
				ElapsedMS:   elapsed.Milliseconds(),
				Cells:       cells,
			})
			continue
		}
		if _, err := fmt.Fprintf(tableOut, "%s\n(%s regenerated in %v)\n\n",
			table.String(), f.ID, elapsed.Round(time.Millisecond)); err != nil {
			fmt.Fprintf(stderr, "costbench: writing tables: %v\n", err)
			return 1
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(tableOut)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "costbench: writing tables: %v\n", err)
			return 1
		}
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			fmt.Fprintf(stderr, "costbench: -out %s: %v\n", *outPath, err)
			return 1
		}
	}
	if traceOut != nil {
		if err := trace.ExportChrome(traceOut, opts.Tracer.Traces()); err != nil {
			fmt.Fprintf(stderr, "costbench: -trace %s: %v\n", *tracePath, err)
			return 1
		}
		if err := traceOut.Close(); err != nil {
			fmt.Fprintf(stderr, "costbench: -trace %s: %v\n", *tracePath, err)
			return 1
		}
	}
	return 0
}
