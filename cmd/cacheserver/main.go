// Command cacheserver runs one remote cache node (memcached-style) as a
// real network service.
//
//	cacheserver -addr :7201 -mem 268435456
//
// It serves the RPC methods cache.Get, cache.Set and cache.Delete;
// cmd/appserver and internal/remotecache.Client speak its protocol.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cachecost/internal/flight"
	"cachecost/internal/meter"
	"cachecost/internal/remotecache"
	"cachecost/internal/shardmgr"
	"cachecost/internal/telemetry"
)

func main() {
	var (
		addr       = flag.String("addr", ":7201", "listen address")
		mem        = flag.Int64("mem", 256<<20, "cache capacity in bytes")
		shards     = flag.Int("shards", 16, "lock shards")
		statsEvery = flag.Duration("stats", 30*time.Second, "stats logging interval (0 = off)")
		metrics    = flag.String("metrics", "", "serve /metrics, /metrics.json, /statusz, /debug/pprof and /debug/requests on this address")
		hotK       = flag.Int("hotkeys", 32, "track the node's top-k hot keys and report them on /statusz (0 = off)")
		logfmt     = flag.String("logfmt", "text", "log format: text|json")
	)
	flag.Parse()

	logger, err := telemetry.NewLogger(*logfmt, "cacheserver")
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
	// An optional hot-key detector on the serve path: constant memory,
	// no effect on correctness — it only feeds the /statusz report an
	// operator reads when deciding whether this node needs relief.
	var det *shardmgr.Detector
	if *hotK > 0 {
		det = shardmgr.NewDetector(8 * *hotK)
		k := *hotK
		reg.RegisterStatus("hotkeys", func(w io.Writer) {
			fmt.Fprintf(w, "hot keys (top %d of %d observed gets, count [±err]):\n", k, det.Ops())
			for _, hk := range det.TopK(k) {
				fmt.Fprintf(w, "  %-40q %d [±%d]\n", hk.Key, hk.Count, hk.Err)
			}
		})
	}
	srvCfg := remotecache.ServerConfig{
		CapacityBytes: *mem,
		Shards:        *shards,
		Meter:         m,
		Telemetry:     reg,
	}
	if det != nil {
		srvCfg.Hot = det
	}
	srv := remotecache.NewServer(srvCfg)
	// The node's own front door records every cache RPC it serves, so a
	// slow Get is attributable here even when the appserver's view only
	// says "cache was slow".
	srv.RPCServer().SetFlight(fr.Scope("cache"))

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen", "addr", *addr, "err", err)
	}
	logger.Info("listening", "capacity_mib", *mem>>20, "addr", l.Addr().String())

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				st := srv.Stats()
				logger.Info("cache stats",
					"hits", st.Hits, "misses", st.Misses,
					"hit_ratio", st.HitRatio(), "used_kib", srv.UsedBytes()>>10)
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

	if err := srv.RPCServer().Serve(l); err != nil {
		fatal("serve", "err", err)
	}
}
