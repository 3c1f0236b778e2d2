package core

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"cachecost/internal/cluster"
	"cachecost/internal/fault"
	"cachecost/internal/flight"
	"cachecost/internal/meter"
	"cachecost/internal/remotecache"
	"cachecost/internal/rpc"
	"cachecost/internal/shardmgr"
	"cachecost/internal/storage"
	"cachecost/internal/storage/plan"
	"cachecost/internal/storage/sql"
	"cachecost/internal/telemetry"
	"cachecost/internal/trace"
)

// Fault-target names used when a ServiceConfig carries an Injector: the
// remote cache node and the in-process linked cache (whose "faults" model
// shard loss/restart of the cache an app replica carries).
const (
	CacheNode       = "cache0"
	LinkedCacheNode = "app.cache"
)

// storageFaultNode is the fault-injection target name of the app→storage
// connection on in-process deployments. A Rule with StallSleep against it
// holds storage round trips for wall-clock time, which the flight
// recorder observes as StageStorage time.
const storageFaultNode = "storage0"

// ServiceConfig assembles one architecture deployment for an experiment.
type ServiceConfig struct {
	// Arch selects the assembly.
	Arch Arch
	// Meter receives all component attributions. Required.
	Meter *meter.Meter

	// StorageCacheBytes is the block cache per storage replica (s_D).
	// Default 8 MiB at experiment scale.
	StorageCacheBytes int64
	// AppCacheBytes is the linked cache budget (s_A). Used by Linked*
	// architectures. Default 8 MiB at experiment scale.
	AppCacheBytes int64
	// AppReplicas is the number of application servers the linked cache
	// is replicated/sharded over — it multiplies linked-cache memory in
	// the bill (the model's N_r). Default 1.
	AppReplicas int
	// RemoteCacheBytes is the remote cache budget, used by Remote.
	// Default 8 MiB at experiment scale.
	RemoteCacheBytes int64
	// CacheNodes splits the Remote architecture's cache tier over this
	// many nodes (RemoteCacheBytes divided evenly; same total memory
	// bill). Default 1: the classic single-node wiring, byte-identical
	// to previous behaviour. With > 1 nodes the client routes through a
	// cluster.ShardMap — epoch-stamped keys, replica fan-out — whether
	// or not a shard manager is reshaping it.
	CacheNodes int
	// CacheNodeConcurrency, when > 0, caps each cache node's
	// concurrently served requests (remotecache.ServerConfig's
	// MaxConcurrent): the fixed per-node serving capacity that makes a
	// hot node actually saturate in-process instead of silently
	// borrowing host CPU.
	CacheNodeConcurrency int
	// CacheNodeServeTime, when > 0, occupies one of a cache node's
	// serving slots for that wall-clock duration per request
	// (remotecache.ServerConfig's ServeTime). Together with
	// CacheNodeConcurrency this fixes each node's serving rate, so a
	// node whose demand exceeds it queues in wall-clock time — the
	// physics the hotshard figure measures.
	CacheNodeServeTime time.Duration
	// ShardMgr, when non-nil, runs dynamic shard management over the
	// CacheNodes tier: hot-key detection on the serve path, replica
	// fan-out for hot shards, live migration off overloaded nodes.
	// Requires CacheNodes > 1.
	ShardMgr *ShardMgrConfig
	// DiskPenaltyPerByte tunes the storage disk model (0 = default).
	DiskPenaltyPerByte float64
	// DiskPenaltyPerOp tunes the storage disk model's per-access charge
	// (0 = default).
	DiskPenaltyPerOp int
	// StorageDurable switches the storage engine to the durable tiered
	// mode (WAL + bloom-filtered SSTables): StorageCacheBytes becomes
	// the DRAM value-tier budget per replica, cold values live on the
	// disk tier, and disk residency is billed at the storage rate.
	StorageDurable bool
	// StorageFrontendWork tunes the storage node's per-statement SQL
	// front-end charge (0 = default; used by the calibration ablation).
	StorageFrontendWork int

	// Faults, when non-nil, interposes the fault-injection layer on the
	// cache tier: the Remote architecture's cache connection is wrapped
	// under the node name CacheNode, with budgeted retries (rpc.RetryConn)
	// above it, and the Linked architecture's in-process cache is gated
	// under LinkedCacheNode. Cache errors are demoted to misses (counted
	// as Path.Degraded), so the service keeps serving through cache loss
	// as the paper's availability discussion assumes. In-process
	// deployments additionally wrap the app→storage connection under
	// storageFaultNode, so storage stalls can be injected and the flight
	// recorder's storage stage attributed.
	Faults *fault.Injector

	// Tracer, when non-nil, records request-path spans for a sample of
	// client operations. Nil disables tracing; the instrumented paths then
	// cost one pointer test per layer. (Path counts — hops, statements,
	// cache messages, raft ships — need no tracer: every request's lane
	// counts them into Meter.)
	Tracer *trace.Tracer

	// Flight, when non-nil, is the tail-latency flight recorder: every
	// front-door dispatch arms its lane to time stages (queue, cache,
	// storage, app) and, at completion, the recorder's tail sampler
	// decides whether to retain the request as an exemplar. Nil disables
	// recording; the fast path then costs one nil test per dispatch.
	Flight *flight.Recorder

	// Telemetry, when non-nil, threads a metrics registry through every
	// layer of the deployment: per-message RPC histograms on each loopback
	// and on the storage/cache servers, pull collectors for the cache and
	// storage tiers, and fault-injection tallies. Nil disables telemetry;
	// the instrumented paths then cost one pointer test per record site.
	Telemetry *telemetry.Registry

	// Parallelism pre-builds that many worker lanes (Worker(i)) for the
	// concurrent experiment driver. Each lane has its own front door,
	// storage connection, cache client stack and fault decision stream,
	// so concurrent workers share no per-request mutable state beyond the
	// (concurrency-safe) services themselves.
	// Default 1: only the classic single-threaded path, byte-identical
	// to previous behaviour. Supported for every architecture on
	// in-process deployments.
	Parallelism int
}

// ShardMgrConfig parameterizes the dynamic shard manager (see
// internal/shardmgr for the policy) over a tier of 64 logical shards, a
// 32-counter-per-stripe hot-key detector and replica sets of up to
// CacheNodes.
type ShardMgrConfig struct {
	// MigrateFrac is the manager's migration threshold (shardmgr.Config's
	// MigrateFrac). Zero keeps the manager default.
	MigrateFrac float64
}

// linkedTTL is the Linked+TTL architecture's freshness bound.
const linkedTTL = 500 * time.Millisecond

func (c *ServiceConfig) applyDefaults() {
	if c.CacheNodes <= 0 {
		c.CacheNodes = 1
	}
	if c.StorageCacheBytes == 0 {
		c.StorageCacheBytes = 8 << 20
	}
	if c.AppCacheBytes == 0 {
		c.AppCacheBytes = 8 << 20
	}
	if c.AppReplicas <= 0 {
		c.AppReplicas = 1
	}
	if c.RemoteCacheBytes == 0 {
		c.RemoteCacheBytes = 8 << 20
	}
	if c.Parallelism < 1 {
		c.Parallelism = 1
	}
}

// deployment is the assembly KVService and CatalogService share, built
// the same way from one ServiceConfig: in process, the storage node and the
// Remote cache tier; in every deployment, the app's transports to them,
// each lane's cache client stack and the front door's settings.
type deployment struct {
	cfg     ServiceConfig
	m       *meter.Meter
	appComp *meter.Component

	node *storage.Node // nil when storage runs elsewhere
	// lbm is the one per-transport metrics family every in-process
	// loopback shares, so process-level scrapes see the merged message
	// stream.
	lbm *rpc.Metrics

	// rcServers is the in-process Remote tier's cache servers, keyed by
	// node name (cacheNodeName). A multi-node tier (CacheNodes > 1) also
	// has the shared placement map and — when ShardMgr is configured —
	// the detector feeding the manager.
	rcServers map[string]*remotecache.Server
	smap      *cluster.ShardMap
	detector  *shardmgr.Detector
	shardMgr  *shardmgr.Manager
}

// build applies cfg's defaults and, for an in-process deployment,
// constructs the storage node and (for Remote) the cache tier.
func (d *deployment) build(cfg ServiceConfig, inProcess bool) error {
	cfg.applyDefaults()
	if cfg.Meter == nil {
		return fmt.Errorf("core: ServiceConfig.Meter is required")
	}
	if cfg.ShardMgr != nil && cfg.CacheNodes < 2 {
		return fmt.Errorf("core: ShardMgr requires CacheNodes > 1")
	}
	d.cfg, d.m = cfg, cfg.Meter
	d.appComp = cfg.Meter.Component("app")
	d.lbm = rpc.NewMetrics(cfg.Telemetry, "loopback")
	if !inProcess {
		return nil
	}
	d.node = storage.NewNode(storage.Config{
		BlockCacheBytes:    cfg.StorageCacheBytes,
		Meter:              cfg.Meter,
		DiskPenaltyPerByte: cfg.DiskPenaltyPerByte,
		DiskPenaltyPerOp:   cfg.DiskPenaltyPerOp,
		FrontendWork:       cfg.StorageFrontendWork,
		Durable:            cfg.StorageDurable,
		Tracer:             cfg.Tracer,
		Telemetry:          cfg.Telemetry,
	})
	if cfg.Arch != Remote {
		return nil
	}
	return d.buildCacheTier()
}

// cacheNodeName is the shard-map name of cache node i ("c0", "c1", …).
func cacheNodeName(i int) string { return "c" + strconv.Itoa(i) }

// cacheFaultNode is the fault-injection target name of cache node i in
// a multi-node tier ("cache0" matches the single-node CacheNode).
func cacheFaultNode(i int) string { return "cache" + strconv.Itoa(i) }

// buildCacheTier constructs the in-process Remote tier. One node is the
// classic single-server wiring, metered as "remotecache". More nodes each
// meter as "remotecache.c<i>" (so the bill's remotecache rollup is
// unchanged) behind a shard map seeded from a consistent-hash ring, with —
// when ShardMgr is configured — the hot-key detector on every node's serve
// path plus the manager that reshapes the map. The total memory bill is
// RemoteCacheBytes either way: the first RemoteCacheBytes % CacheNodes
// nodes get one byte more than the rest.
func (d *deployment) buildCacheTier() error {
	cfg := d.cfg
	var hot remotecache.KeyRecorder
	d.rcServers = make(map[string]*remotecache.Server, cfg.CacheNodes)
	if cfg.CacheNodes > 1 {
		names := make([]string, cfg.CacheNodes)
		for i := range names {
			names[i] = cacheNodeName(i)
		}
		smap, err := cluster.NewShardMap(64, names, 64)
		if err != nil {
			return err
		}
		d.smap = smap
		if cfg.ShardMgr != nil {
			d.detector = shardmgr.NewDetector(32)
			hot = d.detector
		}
	}
	per, rem := cfg.RemoteCacheBytes/int64(cfg.CacheNodes), cfg.RemoteCacheBytes%int64(cfg.CacheNodes)
	for i := 0; i < cfg.CacheNodes; i++ {
		name := "remotecache"
		if d.smap != nil {
			name += "." + cacheNodeName(i)
		}
		capacity := per
		if int64(i) < rem {
			capacity++
		}
		d.rcServers[cacheNodeName(i)] = remotecache.NewServer(remotecache.ServerConfig{
			CapacityBytes: capacity,
			Meter:         cfg.Meter,
			Name:          name,
			RPCCost:       rpc.DefaultCost,
			Tracer:        cfg.Tracer,
			Telemetry:     cfg.Telemetry,
			MaxConcurrent: cfg.CacheNodeConcurrency,
			ServeTime:     cfg.CacheNodeServeTime,
			Hot:           hot,
		})
	}
	if mc := cfg.ShardMgr; mc != nil {
		// Replica sets span up to every node.
		mgr, err := shardmgr.New(shardmgr.Config{
			Map:         d.smap,
			Detector:    d.detector,
			Registry:    cfg.Telemetry,
			MigrateFrac: mc.MigrateFrac,
		})
		if err != nil {
			return err
		}
		d.shardMgr = mgr
	}
	return nil
}

// cacheClient builds lane worker's Remote cache client stack (-1 is the
// default lane), per cache node and innermost first: the connection — a
// private loopback, or external when the node runs elsewhere — fault
// injection at the node (worker lanes draw from their own decision
// streams) with budgeted retries above it; then the client on top, which
// demotes cache failures to misses, routing through the shard map when
// the tier has one.
// It is the stack a production lookaside client carries, and keeping it
// private per lane is what makes per-worker fault schedules
// deterministic: a worker's decisions never interleave into another's.
func (d *deployment) cacheClient(worker int, external rpc.Conn) (*remotecache.Client, error) {
	cfg := d.cfg
	conns := make(map[string]rpc.Conn, cfg.CacheNodes)
	for i := 0; i < cfg.CacheNodes; i++ {
		conn := external
		if conn == nil {
			conn = d.loopback(d.rcServers[cacheNodeName(i)].RPCServer())
		}
		if cfg.Faults != nil {
			conn = cfg.Faults.WrapWorker(cacheFaultNode(i), worker, conn)
			conn = rpc.NewRetryConn(conn, d.appComp, meter.NewBurner())
		}
		conns[cacheNodeName(i)] = conn
	}
	c := remotecache.NewSingleClient(conns[cacheNodeName(0)])
	if d.smap != nil {
		var err error
		if c, err = remotecache.NewRoutedClient(conns, d.smap); err != nil {
			return nil, err
		}
	}
	c.SetTelemetry(cfg.Telemetry)
	return c, nil
}

// loopback is an in-process hop from the app to srv; the app pays its
// client-side transport overhead.
func (d *deployment) loopback(srv *rpc.Server) rpc.Conn {
	lb := rpc.NewLoopback(srv, d.appComp, meter.NewBurner(), rpc.DefaultCost)
	lb.SetMetrics(d.lbm)
	return lb
}

// lanePath builds lane worker's (-1 is the default lane) private paths
// below the app: a storage client and, for Remote, a cache client stack.
// Connections in eps are used as given; the rest are loopbacks, with the
// storage hop wrapped under storageFaultNode.
func (d *deployment) lanePath(worker int, eps RemoteEndpoints) (*storage.Client, *remotecache.Client, error) {
	dbConn := eps.DB
	if dbConn == nil {
		dbConn = d.loopback(d.node.Server())
		if d.cfg.Faults != nil {
			dbConn = d.cfg.Faults.WrapWorker(storageFaultNode, worker, dbConn)
		}
	}
	var rc *remotecache.Client
	if d.cfg.Arch == Remote {
		var err error
		if rc, err = d.cacheClient(worker, eps.Cache); err != nil {
			return nil, nil, err
		}
	}
	return storage.NewClient(dbConn), rc, nil
}

// newFront builds a client-facing front door on the app component — the
// transport charge of both messages after the handler, the handler walking
// the lane itself, the flight recorder's scope when one is configured —
// for the caller to register its application's handlers on.
func (d *deployment) newFront() *rpc.Server {
	front := rpc.NewServer(d.appComp, meter.NewBurner(), rpc.DefaultCost)
	front.SetMeterHandlerBody(false)
	if d.cfg.Flight != nil {
		front.SetFlight(d.cfg.Flight.Scope(d.cfg.Arch.String()))
	}
	return front
}

// Arch implements Service.
func (d *deployment) Arch() Arch { return d.cfg.Arch }

// KVService is the synthetic/Meta-trace service: a key-value style
// application (one row per key in the kvdata table) deployed under one of
// the §2.4 architectures. The client-facing surface is itself an RPC
// server, so client↔app communication is paid like every other hop. A
// read answers the row's digest; a write carries the whole row, so a
// write-through tier keeps a copy of it.
type KVService struct {
	service[[]byte]
}

// NewKVService builds a single-process deployment: the storage node and
// (for Remote) the cache node are constructed in-process and wired over
// loopback transports. See NewKVServiceRemote for distributed wiring.
func NewKVService(cfg ServiceConfig) (*KVService, error) {
	s := &KVService{}
	if err := s.build(cfg, true); err != nil {
		return nil, err
	}
	if err := s.finish(kvApp, RemoteEndpoints{}); err != nil {
		return nil, err
	}
	if err := s.node.Bootstrap([]string{
		"CREATE TABLE kvdata (k TEXT PRIMARY KEY, v BLOB)",
	}); err != nil {
		return nil, err
	}
	return s, nil
}

// RemoteEndpoints carries pre-established connections to already-running
// cluster components, for distributed deployments (cmd/appserver).
type RemoteEndpoints struct {
	// DB connects to a storage node (cmd/storeserver).
	DB rpc.Conn
	// Cache connects to a remote cache node (cmd/cacheserver); required
	// only for the Remote architecture.
	Cache rpc.Conn
}

// NewKVServiceRemote builds an application server against remote storage
// and cache nodes. The schema is created if missing; preloading goes
// through SQL (the remote node's metering is its own concern).
func NewKVServiceRemote(cfg ServiceConfig, eps RemoteEndpoints) (*KVService, error) {
	switch {
	case eps.DB == nil:
		return nil, fmt.Errorf("core: RemoteEndpoints.DB is required")
	case cfg.Arch == Remote && eps.Cache == nil:
		return nil, fmt.Errorf("core: the Remote architecture needs RemoteEndpoints.Cache")
	case cfg.Parallelism > 1:
		return nil, fmt.Errorf("core: Parallelism > 1 requires an in-process deployment")
	case cfg.CacheNodes > 1:
		return nil, fmt.Errorf("core: CacheNodes > 1 requires an in-process deployment")
	}
	s := &KVService{}
	if err := s.build(cfg, false); err != nil {
		return nil, err
	}
	if err := s.finish(kvApp, eps); err != nil {
		return nil, err
	}
	if _, err := s.db().Exec("CREATE TABLE IF NOT EXISTS kvdata (k TEXT PRIMARY KEY, v BLOB)"); err != nil {
		return nil, err
	}
	return s, nil
}

// db is the default lane's storage client.
func (s *KVService) db() *storage.Client { return s.l.src.(*kvRows).db }

// RemoteCacheServer returns the single-node Remote tier's cache server,
// or nil (other architectures, or CacheNodes > 1).
func (s *KVService) RemoteCacheServer() *remotecache.Server {
	if s.smap != nil {
		return nil
	}
	return s.rcServers[cacheNodeName(0)]
}

// ShardManager returns the dynamic shard manager (nil unless ShardMgr
// was configured). The experiment driver calls its Tick on the cadence
// it wants — ticks are not time-based, so runs stay deterministic.
func (s *KVService) ShardManager() *shardmgr.Manager { return s.shardMgr }

// CacheNodeOps reports each cache node's served-request count, keyed by
// shard-map node name — the per-node load spread the hot-shard figure
// reports. Nil for single-node deployments.
func (s *KVService) CacheNodeOps() map[string]int64 {
	if s.smap == nil {
		return nil
	}
	out := make(map[string]int64, len(s.rcServers))
	for n, srv := range s.rcServers {
		out[n] = srv.Ops()
	}
	return out
}

// PreloadItem is one key to bulk-load before a run.
type PreloadItem struct {
	Key  string
	Size int
}

// Preload bulk-loads rows. In-process deployments load through the
// unmetered bootstrap path; remote deployments load through SQL, and
// keep every row their store already holds as it is.
func (s *KVService) Preload(items []PreloadItem) error {
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
			params = append(params, sql.Text(items[i].Key), sql.Blob(ValueFor(items[i].Key, items[i].Size)))
		}
		if s.node != nil {
			if err := s.node.BootstrapExec(stmt, params...); err != nil {
				return err
			}
			continue
		}
		if _, err := s.db().Exec(stmt, params...); err != nil {
			if !duplicateKey(err) {
				return err
			}
			// The store already holds some of the chunk: an app restarted
			// against a running storeserver. Insert it row by row, keeping
			// every row the store holds as it is.
			for i := 0; i < len(params); i += 2 {
				_, err := s.db().Exec("INSERT INTO kvdata (k, v) VALUES (?, ?)", params[i], params[i+1])
				if err != nil && !duplicateKey(err) {
					return err
				}
			}
		}
	}
	return nil
}

// duplicateKey reports whether err is a statement's duplicate-key error,
// which reaches a remote caller as text.
func duplicateKey(err error) bool {
	return strings.Contains(err.Error(), plan.ErrDuplicateKey.Error())
}

// WarmRemoteCache seeds the Remote architecture's cache tier with every
// preload item, as an operator warms a fresh cache fleet before shifting
// traffic onto it. Without it an experiment's metered window starts on
// compulsory misses — storage round trips that measure the miss path,
// not the cache tier under test. Loading goes through each node's bulk
// path (remotecache.Server.Preload): no serving slots, serve work, ops
// tallies or hot-key observations, exactly like storage's unmetered
// bootstrap loads.
func (s *KVService) WarmRemoteCache(items []PreloadItem) error {
	switch {
	case s.smap != nil:
		for _, it := range items {
			v := ValueFor(it.Key, it.Size)
			pl := s.smap.Placement(s.smap.ShardOf(it.Key))
			ek := cluster.EpochKey(pl.Epoch, it.Key)
			for _, n := range pl.Replicas {
				s.rcServers[n].Preload(ek, v)
			}
		}
	case s.rcServers != nil:
		for _, it := range items {
			s.rcServers[cacheNodeName(0)].Preload(it.Key, ValueFor(it.Key, it.Size))
		}
	default:
		return fmt.Errorf("core: WarmRemoteCache requires an in-process Remote deployment")
	}
	return nil
}

// ValueFor builds the deterministic payload for a key at a given size, so
// reads can be validated end-to-end.
func ValueFor(key string, size int) []byte {
	out := make([]byte, size)
	seed := byte(len(key))
	for _, c := range []byte(key) {
		seed ^= c
	}
	for i := range out {
		out[i] = seed + byte(i)
	}
	return out
}

// Digest is the application logic applied to a value: a real computation
// over the object's header (its first few KB) plus its length, producing
// a small derived result. Requests return the digest, not the raw value —
// as in the paper's services, the client asks the application to *use*
// the object (check a permission, render a view), so the response is
// small and the app touches fields, not every byte. This is also what
// makes remote caches over-read (§2.4): they must ship the WHOLE object
// to the app for it to use a small part.
func Digest(value []byte) []byte {
	return appendDigest(make([]byte, 0, 16), value)
}

// appendDigest appends the 16-byte digest of value to dst. Hot paths pass
// a stack-backed dst to keep the digest off the heap.
func appendDigest(dst, value []byte) []byte {
	head := value
	if len(head) > 4<<10 {
		head = head[:4<<10]
	}
	var h uint64 = 1469598103934665603
	for _, c := range head {
		h = (h ^ uint64(c)) * 1099511628211
	}
	for i := 0; i < 8; i++ {
		dst = append(dst, byte(h>>(8*i)))
	}
	n := uint64(len(value))
	for i := 0; i < 8; i++ {
		dst = append(dst, byte(n>>(8*i)))
	}
	return dst
}
