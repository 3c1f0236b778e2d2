// Command appserver runs the application tier under one of the paper's
// caching architectures, connected to remote storeserver and (for the
// Remote architecture) cacheserver processes.
//
//	appserver -addr :7001 -arch linked -store localhost:7101
//	appserver -addr :7001 -arch remote -store localhost:7101 -cache localhost:7201
//
// It serves app.Read / app.Write (see cmd/loadgen) and prints a cost
// report on SIGINT.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"cachecost/internal/core"
	"cachecost/internal/flight"
	"cachecost/internal/meter"
	"cachecost/internal/rpc"
	"cachecost/internal/telemetry"
	"cachecost/internal/trace"
	"cachecost/internal/workload"
)

// archNames lists, in flag spelling, every architecture core.ParseArch
// accepts: it walks the Arch values until one no longer round-trips.
func archNames() string {
	var names []string
	for a := core.Base; ; a++ {
		if _, err := core.ParseArch(a.String()); err != nil {
			return strings.Join(names, "|")
		}
		names = append(names, strings.ToLower(strings.ReplaceAll(a.String(), "+", "-")))
	}
}

func main() {
	var (
		addr      = flag.String("addr", ":7001", "listen address")
		archName  = flag.String("arch", "linked", "caching architecture: "+archNames())
		storeAddr = flag.String("store", "localhost:7101", "storeserver address")
		cacheAddr = flag.String("cache", "", "cacheserver address (Remote architecture)")
		appCache  = flag.Int64("appcache", 64<<20, "linked cache bytes (s_A)")
		poolSize  = flag.Int("pool", 4, "connections per downstream endpoint")
		preload   = flag.Int("preload", 0, "preload N keys before serving")
		valueSize = flag.Int("valuesize", 1024, "preloaded value size")
		metrics   = flag.String("metrics", "", "serve /metrics, /metrics.json, /statusz, /debug/pprof and /debug/requests on this address")
		logfmt    = flag.String("logfmt", "text", "log format: text|json")
	)
	flag.Parse()

	logger, err := telemetry.NewLogger(*logfmt, "appserver")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	arch, err := core.ParseArch(*archName)
	if err != nil {
		fatal("bad -arch", "err", err)
	}

	m := meter.NewMeter()
	reg := telemetry.NewRegistry()
	telemetry.RegisterMeter(reg, "meter", m)
	// The flight recorder is always on: the front door attributes every
	// request's latency by stage and the tail sampler retains exemplars
	// for the slowest and every bad outcome, served on /debug/requests.
	fr := flight.New(flight.Config{CPUCoreMonthUSD: meter.GCP.CPUCoreMonth})
	// Bind the ops endpoint before dialing or serving anything: a bad
	// -metrics address must fail startup, not surface as a missing scrape
	// after the service is already taking traffic.
	if *metrics != "" {
		msrv, err := telemetry.StartOps(*metrics, telemetry.OpsConfig{
			Registry: reg, Meter: m, Prices: meter.GCP,
			Debug: map[string]http.Handler{"/debug/requests": flight.Handler(fr)},
		})
		if err != nil {
			fatal("metrics endpoint", "err", err)
		}
		defer msrv.Close()
		logger.Info("serving metrics", "url", "http://"+msrv.Addr+"/metrics")
	}
	appComp := m.Component("app")
	dbConn, err := rpc.DialPool(*storeAddr, *poolSize, appComp, meter.NewBurner(), rpc.DefaultCost)
	if err != nil {
		fatal("dial store", "addr", *storeAddr, "err", err)
	}
	dbConn.SetMetrics(rpc.NewMetrics(reg, "tcp"))
	eps := core.RemoteEndpoints{DB: dbConn}
	if arch == core.Remote {
		if *cacheAddr == "" {
			fatal("-cache is required for -arch remote")
		}
		cacheConn, err := rpc.DialPool(*cacheAddr, *poolSize, appComp, meter.NewBurner(), rpc.DefaultCost)
		if err != nil {
			fatal("dial cache", "addr", *cacheAddr, "err", err)
		}
		cacheConn.SetMetrics(rpc.NewMetrics(reg, "tcp"))
		eps.Cache = cacheConn
	}

	svcCfg := core.ServiceConfig{
		Arch:          arch,
		Meter:         m,
		AppCacheBytes: *appCache,
		Telemetry:     reg,
		Flight:        fr,
	}
	svc, err := core.NewKVServiceRemote(svcCfg, eps)
	if err != nil {
		fatal("service", "err", err)
	}
	svc.Front().SetMetrics(rpc.NewMetrics(reg, "server"))
	// Join the trace ids clients stamp on sampled frames (loadgen -sample),
	// so the flight recorder's exemplars carry them.
	svc.Front().SetTracer(trace.New(trace.Config{Capacity: 1}), "app.rpc")

	if *preload > 0 {
		logger.Info("preloading", "keys", *preload, "value_size", *valueSize)
		items := make([]core.PreloadItem, *preload)
		for i := range items {
			items[i] = core.PreloadItem{Key: workload.KeyName(i), Size: *valueSize}
		}
		if err := svc.Preload(items); err != nil {
			fatal("preload", "err", err)
		}
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen", "addr", *addr, "err", err)
	}
	logger.Info("listening", "arch", arch.String(), "store", *storeAddr, "addr", l.Addr().String())

	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Println(meter.BuildReport(m, meter.GCP))
		warnSlowest(logger, fr)
		os.Exit(0)
	}()

	if err := svc.Front().Serve(l); err != nil {
		fatal("serve", "err", err)
	}
}

// warnSlowest logs the worst retained exemplar on shutdown with its
// trace identity, so the last thing in the log correlates with the last
// /debug/requests snapshot an operator may have saved.
func warnSlowest(logger *slog.Logger, fr *flight.Recorder) {
	ex := fr.Exemplars()
	if len(ex.Slowest) == 0 {
		return
	}
	r := &ex.Slowest[0].Record
	logger.Warn("slowest retained request",
		"method", r.Method,
		"dur_ms", float64(r.Dur)/1e6,
		"dominant_stage", r.DominantStage().String(),
		"outcome", r.Outcome().String(),
		"trace_id", r.TraceID,
		"span_id", r.SpanID)
}
