// Command storeserver runs one mini-TiDB database node group (SQL
// front-end + replicated paged KV engine with block caches) as a real
// network service, for driving the caching architectures across actual
// processes and sockets.
//
//	storeserver -addr :7101 -replicas 3 -blockcache 67108864
//
// The node serves the RPC methods sql.Query, sql.Exec and sql.Version;
// cmd/appserver and internal/storage.Client speak its protocol.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cachecost/internal/flight"
	"cachecost/internal/meter"
	"cachecost/internal/storage"
	"cachecost/internal/telemetry"
)

func main() {
	var (
		addr       = flag.String("addr", ":7101", "listen address")
		replicas   = flag.Int("replicas", 3, "replication factor (raft group size)")
		blockCache = flag.Int64("blockcache", 64<<20, "block cache bytes per replica (s_D)")
		pageBytes  = flag.Int("pagebytes", 16<<10, "storage page size")
		statsEvery = flag.Duration("stats", 30*time.Second, "stats logging interval (0 = off)")
		metrics    = flag.String("metrics", "", "serve /metrics, /metrics.json, /statusz, /debug/pprof and /debug/requests on this address")
		logfmt     = flag.String("logfmt", "text", "log format: text|json")
	)
	flag.Parse()

	logger, err := telemetry.NewLogger(*logfmt, "storeserver")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	m := meter.NewMeter()
	reg := telemetry.NewRegistry()
	telemetry.RegisterMeter(reg, "meter", m)
	fr := flight.New(flight.Config{CPUCoreMonthUSD: meter.GCP.CPUCoreMonth})
	// Fail startup on a bad -metrics address, before serving traffic.
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
	node := storage.NewNode(storage.Config{
		Replicas:        *replicas,
		BlockCacheBytes: *blockCache,
		PageBytes:       *pageBytes,
		Meter:           m,
		Telemetry:       reg,
	})
	// Record every SQL RPC this node serves: a raft-ship stall shows up
	// here as a storage/raft-dominant exemplar even when the appserver
	// only sees an opaque slow round trip.
	node.Server().SetFlight(fr.Scope("store"))

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen", "addr", *addr, "err", err)
	}
	logger.Info("listening",
		"replicas", *replicas, "blockcache_mib", *blockCache>>20, "addr", l.Addr().String())

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				rep := meter.BuildReport(m, meter.GCP)
				logger.Info("store stats",
					"ops", rep.Requests, "cores_busy", rep.ComponentCores(""),
					"data_kib", node.DataBytes()>>10)
			}
		}()
	}

	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Println(meter.BuildReport(m, meter.GCP))
		os.Exit(0)
	}()

	if err := node.Server().Serve(l); err != nil {
		fatal("serve", "err", err)
	}
}
