package telemetry

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"

	"cachecost/internal/meter"
)

// OpsConfig wires the ops endpoint to a process's observable state.
type OpsConfig struct {
	// Registry backs /metrics and /metrics.json. Required.
	Registry *Registry
	// Meter, when set, adds the full cost report to /statusz.
	Meter *meter.Meter
	// Prices prices the /statusz report; zero value falls back to GCP.
	Prices meter.PriceBook
	// Debug mounts extra handlers on the ops mux by path (e.g. the
	// flight recorder's "/debug/requests"). Paths collide with the
	// built-in mounts at the caller's own risk.
	Debug map[string]http.Handler
}

// newOpsHandler builds the ops mux: Prometheus-text /metrics, JSON
// /metrics.json, a human /statusz cost table, and the stdlib pprof
// handlers under /debug/pprof/. The mux is explicit — handlers are
// mounted here, not on http.DefaultServeMux, so two servers in one test
// process never collide.
func newOpsHandler(cfg OpsConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		snap := cfg.Registry.Snapshot()
		_ = snap.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		snap := cfg.Registry.Snapshot()
		_ = snap.WriteJSON(w)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		WriteStatusz(w, cfg)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for path, h := range cfg.Debug {
		mux.Handle(path, h)
	}
	return mux
}

// WriteStatusz renders the plain-text cost table: the meter's priced
// report when a meter is attached, then every histogram digest, then
// counters and gauges. Exported so the flight recorder's black-box dump
// can write the same report to a file that /statusz serves over HTTP.
func WriteStatusz(w io.Writer, cfg OpsConfig) {
	prices := cfg.Prices
	if prices == (meter.PriceBook{}) {
		prices = meter.GCP
	}
	if cfg.Meter != nil {
		rep := meter.BuildReport(cfg.Meter, prices)
		fmt.Fprintln(w, rep.String())
	}
	snap := cfg.Registry.Snapshot()
	if len(snap.Hists) > 0 {
		fmt.Fprintln(w, "histograms:")
		for _, hs := range snap.Hists {
			s := hs.Summary()
			fmt.Fprintf(w, "  %-40s count=%d p50=%d p90=%d p99=%d p999=%d max=%d mean=%.1f\n",
				metricKey(hs.Name, hs.Labels), s.Count, s.P50, s.P90, s.P99, s.P999, s.Max, s.Mean)
		}
	}
	if len(snap.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, c := range snap.Counters {
			fmt.Fprintf(w, "  %-40s %g\n", metricKey(c.Name, c.Labels), c.Value)
		}
	}
	if len(snap.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, g := range snap.Gauges {
			fmt.Fprintf(w, "  %-40s %g\n", metricKey(g.Name, g.Labels), g.Value)
		}
	}
	for _, sec := range cfg.Registry.StatusSections() {
		fmt.Fprintf(w, "%s:\n", sec.Name)
		sec.Render(w)
	}
}

// OpsServer is a running ops endpoint.
type OpsServer struct {
	// Addr is the bound listen address (useful with ":0").
	Addr string

	srv *http.Server
	ln  net.Listener
}

// StartOps binds addr and serves the ops mux on it. The bind happens
// synchronously so a bad -metrics address fails the process at startup
// — the same fail-fast contract the CLI applies to unwritable -out and
// -trace paths — instead of surfacing as a silent scrape timeout later.
func StartOps(addr string, cfg OpsConfig) (*OpsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cannot bind metrics address %s: %w", addr, err)
	}
	srv := &http.Server{Handler: newOpsHandler(cfg)}
	o := &OpsServer{Addr: ln.Addr().String(), srv: srv, ln: ln}
	go func() { _ = srv.Serve(ln) }()
	return o, nil
}

// Close stops serving and releases the listener.
func (o *OpsServer) Close() error {
	if o == nil {
		return nil
	}
	return o.srv.Close()
}
