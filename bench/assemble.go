package main

import (
	"net"
	"sync"

	"cachecost/internal/core"
	"cachecost/internal/flight"
	"cachecost/internal/meter"
	"cachecost/internal/remotecache"
	"cachecost/internal/rpc"
	"cachecost/internal/storage"
	"cachecost/internal/storage/sql"
	"cachecost/internal/telemetry"
)

// deployment is one architecture built from exported parts the way
// core.NewKVService builds it, except that the benchmark owns the
// storage and cache connections and wraps each in a spanConn. Nothing
// under internal/ or cmd/ is edited to measure it.
type deployment struct {
	m     *meter.Meter
	svc   *core.KVService
	node  *storage.Node
	cache *remotecache.Server // nil unless the architecture is Remote
	rec   *recorder

	// Conns below the service, as the replay uses them.
	db, cc rpc.Conn

	// Socket deployments only: the load generator's connections, and
	// what close must stop and wait for.
	clients []*rpc.Client
	closers []func()
	serving sync.WaitGroup
}

// costs selects the modeled-work calibration of a set of parts: the
// defaults every figure runs with, or as close to zero as the exported
// configs allow (the "real" side of the replay). Zero is spelled as a
// vanishing per-byte rate because a zero CostModel means "use the
// default" to storage.Config.
type costs struct {
	rpc        rpc.CostModel // loopback, cache server and front door
	storageRPC rpc.CostModel
	frontend   int
	diskByte   float64
	diskOp     int
}

var (
	defaultCosts = costs{rpc: rpc.DefaultCost}
	realCosts    = costs{
		storageRPC: rpc.CostModel{PerByte: 1e-12},
		frontend:   -1,
		diskByte:   1e-12,
		diskOp:     1,
	}
)

// workingSet is the footprint the cache tiers budget for the key
// population: key + value + the 64-byte per-entry overhead they charge.
func workingSet(items []core.PreloadItem) int64 {
	var ws int64
	for _, it := range items {
		ws += int64(len(it.Key) + it.Size + 64)
	}
	return ws
}

// newParts builds the storage node and (for Remote) the cache node of
// sp on meter m, with the kvdata schema and the key population loaded
// through the unmetered bootstrap path, as core.BuildKVService does.
func newParts(sp spec, items []core.PreloadItem, m *meter.Meter, reg *telemetry.Registry, c costs) (*storage.Node, *remotecache.Server, error) {
	ws := workingSet(items)
	node := storage.NewNode(storage.Config{
		Replicas:           3,
		BlockCacheBytes:    int64(float64(ws) * sp.blockFrac),
		Meter:              m,
		RPCCost:            c.storageRPC,
		FrontendWork:       c.frontend,
		DiskPenaltyPerByte: c.diskByte,
		DiskPenaltyPerOp:   c.diskOp,
		Telemetry:          reg,
	})
	if err := node.Bootstrap([]string{"CREATE TABLE kvdata (k TEXT PRIMARY KEY, v BLOB)"}); err != nil {
		return nil, nil, err
	}
	const chunk = 50
	for start := 0; start < len(items); start += chunk {
		end := min(start+chunk, len(items))
		stmt := "INSERT INTO kvdata (k, v) VALUES "
		params := make([]sql.Value, 0, 2*(end-start))
		for i := start; i < end; i++ {
			if i > start {
				stmt += ", "
			}
			stmt += "(?, ?)"
			params = append(params, sql.Text(items[i].Key), sql.Blob(core.ValueFor(items[i].Key, items[i].Size)))
		}
		if err := node.BootstrapExec(stmt, params...); err != nil {
			return nil, nil, err
		}
	}
	var cache *remotecache.Server
	if sp.arch == core.Remote {
		cache = remotecache.NewServer(remotecache.ServerConfig{
			CapacityBytes: int64(float64(ws) * sp.cacheFrac),
			Meter:         m,
			Name:          "remotecache",
			RPCCost:       c.rpc,
			Telemetry:     reg,
		})
	}
	return node, cache, nil
}

// assemble builds sp's deployment with the default calibration.
func assemble(sp spec, items []core.PreloadItem) (*deployment, error) {
	d := &deployment{m: meter.NewMeter(), rec: newRecorder(!sp.tcp)}
	cfg := core.ServiceConfig{
		Arch:          sp.arch,
		Meter:         d.m,
		AppCacheBytes: int64(float64(workingSet(items)) * sp.cacheFrac),
	}
	if sp.tcp {
		// Armed as on the real binaries.
		cfg.Telemetry = telemetry.NewRegistry()
		telemetry.RegisterMeter(cfg.Telemetry, "meter", d.m)
		cfg.Flight = flight.New(flight.Config{CPUCoreMonthUSD: meter.GCP.CPUCoreMonth})
	}
	var err error
	if d.node, d.cache, err = newParts(sp, items, d.m, cfg.Telemetry, defaultCosts); err != nil {
		return nil, err
	}
	app := d.m.Component("app")
	var eps core.RemoteEndpoints
	if sp.tcp {
		// dialPool wraps each pooled connection in its own spanConn.
		err = d.wireSockets(app, cfg.Telemetry, cfg.Flight)
		eps.DB, eps.Cache = d.db, d.cc
	} else {
		d.db = rpc.NewLoopback(d.node.Server(), app, meter.NewBurner(), rpc.DefaultCost)
		eps.DB = &spanConn{next: d.db, layer: layerStorage, rec: d.rec}
		if d.cache != nil {
			d.cc = rpc.NewLoopback(d.cache.RPCServer(), app, meter.NewBurner(), rpc.DefaultCost)
			eps.Cache = &spanConn{next: d.cc, layer: layerCache, rec: d.rec}
		}
	}
	if err == nil {
		d.svc, err = core.NewKVServiceRemote(cfg, eps)
	}
	if err == nil && sp.tcp {
		err = d.serveFront(cfg.Telemetry)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// serve runs srv on a fresh loopback listener until close, and returns
// its address.
func (d *deployment) serve(srv *rpc.Server) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		srv.Serve(l) // returns once close closes the server
	}()
	d.closers = append(d.closers, func() { srv.Close() })
	return l.Addr().String(), nil
}

// dialPool is rpc.DialPool with each pooled connection wrapped to carry
// its pool index into the spans it records.
func (d *deployment) dialPool(addr string, layer uint8, app *meter.Component, tm *rpc.Metrics) (rpc.Conn, error) {
	const poolSize = 2
	conns := make([]rpc.Conn, poolSize)
	for i := range conns {
		c, err := rpc.Dial(addr, app, meter.NewBurner(), rpc.DefaultCost)
		if err != nil {
			return nil, err
		}
		c.SetMetrics(tm)
		d.closers = append(d.closers, func() { c.Close() })
		conns[i] = &spanConn{next: c, layer: layer, idx: int8(i), rec: d.rec}
	}
	return rpc.NewPool(conns...), nil
}

// wireSockets puts the storage and cache nodes behind real listeners and
// dials them the way cmd/appserver does.
func (d *deployment) wireSockets(app *meter.Component, reg *telemetry.Registry, fr *flight.Recorder) error {
	d.node.Server().SetFlight(fr.Scope("store"))
	d.cache.RPCServer().SetFlight(fr.Scope("cache"))
	storeAddr, err := d.serve(d.node.Server())
	if err != nil {
		return err
	}
	cacheAddr, err := d.serve(d.cache.RPCServer())
	if err != nil {
		return err
	}
	tm := rpc.NewMetrics(reg, "tcp")
	if d.db, err = d.dialPool(storeAddr, layerStorage, app, tm); err != nil {
		return err
	}
	d.cc, err = d.dialPool(cacheAddr, layerCache, app, tm)
	return err
}

// serveFront exposes the service's front door on a socket and connects
// the two load-generator clients (one per vCPU), as cmd/loadgen does.
func (d *deployment) serveFront(reg *telemetry.Registry) error {
	d.svc.Front().SetMetrics(rpc.NewMetrics(reg, "server"))
	addr, err := d.serve(d.svc.Front())
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		c, err := rpc.Dial(addr, nil, nil, rpc.CostModel{})
		if err != nil {
			return err
		}
		d.clients = append(d.clients, c)
		d.closers = append(d.closers, func() { c.Close() })
	}
	return nil
}

// close stops every listener and connection the deployment opened and
// waits for the accept loops to return.
func (d *deployment) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.serving.Wait()
}

// hitStats snapshots the architecture's cache-tier counters.
func (d *deployment) hitStats() (hits, misses int64) {
	switch {
	case d.cache != nil:
		st := d.cache.Stats()
		return st.Hits, st.Misses
	case d.svc.LinkedCache() != nil:
		st := d.svc.LinkedCache().Stats()
		return st.Hits, st.Misses
	}
	return 0, 0
}
