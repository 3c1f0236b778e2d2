package core

import (
	"fmt"
	"strconv"
	"time"

	"cachecost/internal/admission"
	"cachecost/internal/cluster"
	"cachecost/internal/consistency"
	"cachecost/internal/fault"
	"cachecost/internal/flight"
	"cachecost/internal/linkedcache"
	"cachecost/internal/meter"
	"cachecost/internal/remotecache"
	"cachecost/internal/rpc"
	"cachecost/internal/shardmgr"
	"cachecost/internal/storage"
	"cachecost/internal/storage/sql"
	"cachecost/internal/telemetry"
	"cachecost/internal/trace"
	"cachecost/internal/wire"
)

// Fault-target names used when a ServiceConfig carries an Injector: the
// remote cache node and the in-process linked cache (whose "faults" model
// shard loss/restart of the cache an app replica carries).
const (
	CacheNode       = "cache0"
	LinkedCacheNode = "app.cache"
)

// StorageFaultNode is the fault-injection target name of the app→storage
// connection on in-process deployments. A Rule with StallWork against it
// burns metered work on every storage round trip, which the flight
// recorder observes as StageStorage time — the injected fault the tailwhy
// smoke test expects to dominate deadline exemplars.
const StorageFaultNode = "storage0"

// DegradedCounter is the meter counter that counts cache errors demoted
// to misses so the service keeps serving through cache loss.
const DegradedCounter = "cache.degraded"

// RetriesCounter is the meter counter bumped per cache-call retry.
const RetriesCounter = "rpc.retries"

// ShedCounter is the meter counter bumped when the admission gate
// refuses a request because its wait queue is full; the request gets a
// degraded cache-only answer instead of the full path.
const ShedCounter = "admission.shed"

// DeadlineExceededCounter is the meter counter bumped when a request's
// SLO deadline expired at or before admission.
const DeadlineExceededCounter = "admission.deadline"

// AdmissionConfig bounds the service's accepted work under overload: at
// most MaxInflight requests execute the full path concurrently, at most
// QueueDepth wait for a slot, and everything beyond — or anything whose
// propagated deadline expires first — is shed to a degraded cache-only
// answer. See internal/admission.
type AdmissionConfig struct {
	// MaxInflight is the number of concurrently admitted requests.
	// Required (> 0).
	MaxInflight int
	// QueueDepth bounds the wait queue; 0 sheds the instant all slots
	// are busy.
	QueueDepth int
}

// ServiceConfig assembles one architecture deployment for an experiment.
type ServiceConfig struct {
	// Arch selects the assembly.
	Arch Arch
	// Meter receives all component attributions. Required.
	Meter *meter.Meter

	// StorageReplicas is the database replication factor. Default 3.
	StorageReplicas int
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
	// RPCCost models transport overhead on every hop.
	RPCCost rpc.CostModel
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
	// TTL is the freshness bound for the LinkedTTL architecture.
	// Default 500ms.
	TTL time.Duration

	// Faults, when non-nil, interposes the fault-injection layer on the
	// cache tier: the Remote architecture's cache connection is wrapped
	// under the node name CacheNode, and the Linked architecture's
	// in-process cache is gated under LinkedCacheNode. Cache errors are
	// demoted to misses (counted under DegradedCounter), so the service
	// keeps serving through cache loss as the paper's availability
	// discussion assumes. In-process deployments additionally wrap the
	// app→storage connection under StorageFaultNode, so storage stalls
	// can be injected for the tail-attribution experiments.
	Faults *fault.Injector
	// CacheRetry, when non-nil, wraps the Remote architecture's cache
	// connection in an rpc.RetryConn with this policy (retries are
	// counted under RetriesCounter).
	CacheRetry *rpc.RetryPolicy
	// Admission, when non-nil, interposes an SLO-aware admission gate on
	// the client-facing read/write path: requests past MaxInflight wait
	// in a bounded queue, and overflow or deadline expiry is shed to a
	// degraded cache-only answer (ShedCounter / DeadlineExceededCounter).
	Admission *AdmissionConfig
	// RetrySeed drives the retry layer's jitter sequence. Default 1.
	RetrySeed int64

	// Tracer, when non-nil, records request-path spans and exact path
	// counters (hops, statements, cache messages, raft ships) for every
	// client operation. Nil disables tracing; the instrumented paths then
	// cost one pointer test per layer.
	Tracer *trace.Tracer

	// Flight, when non-nil, is the tail-latency flight recorder: every
	// front-door dispatch gets an always-on stage breakdown (queue,
	// admission, cache, storage, app) and, at completion, the recorder's
	// tail sampler decides whether to retain the request as an exemplar.
	// Nil disables recording; the fast path then costs one nil test per
	// dispatch.
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
	// to previous behaviour. Supported for Base, Remote and Linked on
	// in-process deployments.
	Parallelism int
}

// ShardMgrConfig parameterizes the dynamic shard manager (see
// internal/shardmgr for the policy).
type ShardMgrConfig struct {
	// Shards is the logical shard count. Default 64.
	Shards int
	// MaxReplicas caps a hot shard's replica set. Default: CacheNodes.
	MaxReplicas int
	// TopK is the hot-key detector's per-stripe counter budget.
	// Default 32.
	TopK int
	// HandoffTicks is how many manager ticks a migration's double-read
	// window stays open. Default 2.
	HandoffTicks int
	// HotFrac is the manager's replication threshold (shardmgr.Config's
	// HotFrac). Zero keeps the manager default.
	HotFrac float64
	// MigrateFrac is the manager's migration threshold (shardmgr.Config's
	// MigrateFrac). Zero keeps the manager default.
	MigrateFrac float64
}

func (c *ServiceConfig) applyDefaults() {
	if c.StorageReplicas <= 0 {
		c.StorageReplicas = 3
	}
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
	if c.RPCCost == (rpc.CostModel{}) {
		c.RPCCost = rpc.DefaultCost
	}
	if c.TTL <= 0 {
		c.TTL = 500 * time.Millisecond
	}
	if c.RetrySeed == 0 {
		c.RetrySeed = 1
	}
	if c.Parallelism < 1 {
		c.Parallelism = 1
	}
}

// KVService is the synthetic/Meta-trace service: a key-value style
// application (one row per key in the kvdata table) deployed under one of
// the §2.4 architectures. The client-facing surface is itself an RPC
// server, so client↔app communication is paid like every other hop.
type KVService struct {
	// KVWorker is the default lane (worker -1, the default fault stream):
	// the service's own Read/Write/ReadDeadline/WriteDeadline/SetIntended/
	// ReadBatch/WriteBatch are this worker's.
	KVWorker

	cfg     ServiceConfig
	m       *meter.Meter
	appComp *meter.Component

	node *storage.Node
	// lbm is the one per-transport metrics family every in-process
	// loopback shares, so process-level scrapes see the merged message
	// stream.
	lbm *rpc.Metrics

	rcServer *remotecache.Server

	// Multi-node cache tier (CacheNodes > 1): servers by shard-map node
	// name, the shared placement map, and — when ShardMgr is configured
	// — the detector feeding the manager.
	rcServers map[string]*remotecache.Server
	smap      *cluster.ShardMap
	detector  *shardmgr.Detector
	shardMgr  *shardmgr.Manager

	// arch is the built architecture: the cache state every lane's tier
	// shares, and the binder newLane makes each lane's tier with.
	arch *architecture[[]byte]

	retries  []*rpc.RetryConn // every lane's cache retry layers, when configured
	degraded *meter.Counter   // cache errors demoted to misses

	// Admission control, when configured: one gate shared by every lane
	// (slots are a service-level resource), with shed/deadline counters
	// on both the meter (reset at the metered-window boundary, surfaced
	// in RunResult) and the telemetry registry (live scrapes).
	gate       *admission.Gate
	shedCtr    *meter.Counter
	dlCtr      *meter.Counter
	telShed    *telemetry.Counter
	telExpired *telemetry.Counter
	// hitCount is the application-level cache accounting, counted at the
	// tier call on the full path (shed reads are overload triage, not the
	// architecture's policy, and stay out of it).
	hitCount

	// lanes are the pre-built worker lanes when Parallelism > 1.
	lanes []*kvLane

	// obs, when set (before traffic starts), observes every successful
	// read — the elastic controller's demand feed.
	obs func(key string, size int64)
}

// kvLane is one request path through the service: a front door whose
// handlers run the lane's tier over the lane's private storage path. The
// tier is bound to the lane's cache client stack and fault decision
// stream, so the default lane (worker -1) reproduces the historical
// single-threaded behaviour exactly and worker lanes give the concurrent
// driver contention-free, deterministic request paths. (Busy-time
// attribution is per request, not per kvLane: see meter.Lane.)
type kvLane struct {
	front *rpc.Server
	rows  *kvRows
	tier  tier[[]byte]
}

// NewKVService builds a single-process deployment: the storage node and
// (for Remote) the cache node are constructed in-process and wired over
// loopback transports. See NewKVServiceRemote for distributed wiring.
func NewKVService(cfg ServiceConfig) (*KVService, error) {
	cfg.applyDefaults()
	if cfg.Meter == nil {
		return nil, fmt.Errorf("core: ServiceConfig.Meter is required")
	}
	if cfg.ShardMgr != nil && cfg.CacheNodes < 2 {
		return nil, fmt.Errorf("core: ShardMgr requires CacheNodes > 1")
	}
	s := &KVService{cfg: cfg, m: cfg.Meter}
	s.appComp = cfg.Meter.Component("app")

	s.node = storage.NewNode(storage.Config{
		Replicas:           cfg.StorageReplicas,
		BlockCacheBytes:    cfg.StorageCacheBytes,
		Meter:              cfg.Meter,
		DiskPenaltyPerByte: cfg.DiskPenaltyPerByte,
		DiskPenaltyPerOp:   cfg.DiskPenaltyPerOp,
		FrontendWork:       cfg.StorageFrontendWork,
		Durable:            cfg.StorageDurable,
		Tracer:             cfg.Tracer,
		Telemetry:          cfg.Telemetry,
	})
	s.lbm = rpc.NewMetrics(cfg.Telemetry, "loopback")
	if cfg.Arch == Remote {
		if cfg.CacheNodes > 1 {
			if err := s.buildCacheTier(); err != nil {
				return nil, err
			}
		} else {
			s.rcServer = remotecache.NewServer(remotecache.ServerConfig{
				CapacityBytes: cfg.RemoteCacheBytes,
				Meter:         cfg.Meter,
				Name:          "remotecache",
				RPCCost:       cfg.RPCCost,
				Tracer:        cfg.Tracer,
				Telemetry:     cfg.Telemetry,
				MaxConcurrent: cfg.CacheNodeConcurrency,
				ServeTime:     cfg.CacheNodeServeTime,
			})
		}
	}
	if err := s.finish(RemoteEndpoints{}); err != nil {
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
	cfg.applyDefaults()
	if cfg.Meter == nil {
		return nil, fmt.Errorf("core: ServiceConfig.Meter is required")
	}
	if eps.DB == nil {
		return nil, fmt.Errorf("core: RemoteEndpoints.DB is required")
	}
	if cfg.Arch == Remote && eps.Cache == nil {
		return nil, fmt.Errorf("core: the Remote architecture needs RemoteEndpoints.Cache")
	}
	if cfg.Parallelism > 1 {
		return nil, fmt.Errorf("core: Parallelism > 1 requires an in-process deployment")
	}
	if cfg.CacheNodes > 1 {
		return nil, fmt.Errorf("core: CacheNodes > 1 requires an in-process deployment")
	}
	s := &KVService{cfg: cfg, m: cfg.Meter}
	s.appComp = cfg.Meter.Component("app")
	if err := s.finish(eps); err != nil {
		return nil, err
	}
	if _, err := s.l.rows.db.Exec("CREATE TABLE IF NOT EXISTS kvdata (k TEXT PRIMARY KEY, v BLOB)"); err != nil {
		return nil, err
	}
	return s, nil
}

// cacheNodeName is the shard-map name of cache node i ("c0", "c1", …).
func cacheNodeName(i int) string { return "c" + strconv.Itoa(i) }

// CacheFaultNode is the fault-injection target name of cache node i in
// a multi-node tier ("cache0" matches the single-node CacheNode).
func CacheFaultNode(i int) string { return "cache" + strconv.Itoa(i) }

// buildCacheTier constructs the CacheNodes > 1 remote tier: one server
// per node (each metered as "remotecache.c<i>", so the bill's
// remotecache rollup is unchanged), the shared shard map seeded from a
// consistent-hash ring, and — when ShardMgr is configured — the hot-key
// detector on every node's serve path plus the manager that reshapes
// the map. The total memory bill equals the single-node tier's:
// RemoteCacheBytes split evenly.
func (s *KVService) buildCacheTier() error {
	cfg := s.cfg
	names := make([]string, cfg.CacheNodes)
	for i := range names {
		names[i] = cacheNodeName(i)
	}
	shards, topK, maxReplicas, handoffTicks := 64, 32, cfg.CacheNodes, 2
	if mc := cfg.ShardMgr; mc != nil {
		if mc.Shards > 0 {
			shards = mc.Shards
		}
		if mc.TopK > 0 {
			topK = mc.TopK
		}
		if mc.MaxReplicas > 0 {
			maxReplicas = mc.MaxReplicas
		}
		if mc.HandoffTicks > 0 {
			handoffTicks = mc.HandoffTicks
		}
		s.detector = shardmgr.NewDetector(topK)
	}
	smap, err := cluster.NewShardMap(shards, names, 64)
	if err != nil {
		return err
	}
	s.smap = smap
	perNode := cfg.RemoteCacheBytes / int64(cfg.CacheNodes)
	s.rcServers = make(map[string]*remotecache.Server, cfg.CacheNodes)
	var hot remotecache.KeyRecorder
	if s.detector != nil {
		hot = s.detector
	}
	for _, n := range names {
		s.rcServers[n] = remotecache.NewServer(remotecache.ServerConfig{
			CapacityBytes: perNode,
			Meter:         cfg.Meter,
			Name:          "remotecache." + n,
			RPCCost:       cfg.RPCCost,
			Tracer:        cfg.Tracer,
			Telemetry:     cfg.Telemetry,
			MaxConcurrent: cfg.CacheNodeConcurrency,
			ServeTime:     cfg.CacheNodeServeTime,
			Hot:           hot,
		})
	}
	if cfg.ShardMgr != nil {
		mgr, err := shardmgr.New(shardmgr.Config{
			Map:          smap,
			Detector:     s.detector,
			Registry:     cfg.Telemetry,
			MaxReplicas:  maxReplicas,
			HandoffTicks: handoffTicks,
			HotFrac:      cfg.ShardMgr.HotFrac,
			MigrateFrac:  cfg.ShardMgr.MigrateFrac,
		})
		if err != nil {
			return err
		}
		s.shardMgr = mgr
	}
	return nil
}

// cacheClient builds lane worker's Remote cache client stack (-1 is the
// default lane), per cache node and innermost first: the connection — a
// private loopback, or external when the node runs elsewhere — fault
// injection at the node (worker lanes draw from their own decision
// streams), budgeted retries above it; then graceful degradation in the
// client on top, routing through the shard map when the tier has one.
// It is the stack a production lookaside client carries, and keeping it
// private per lane is what makes per-worker fault schedules
// deterministic: a worker's decisions never interleave into another's.
func (s *KVService) cacheClient(worker int, external rpc.Conn) (*remotecache.Client, error) {
	cfg := s.cfg
	conns := make(map[string]rpc.Conn, cfg.CacheNodes)
	for i := 0; i < cfg.CacheNodes; i++ {
		conn := external
		if conn == nil {
			srv := s.rcServer
			if s.smap != nil {
				srv = s.rcServers[cacheNodeName(i)]
			}
			conn = s.loopback(srv.RPCServer())
		}
		if cfg.Faults != nil {
			conn = cfg.Faults.WrapWorker(CacheFaultNode(i), worker, conn)
		}
		if cfg.CacheRetry != nil {
			policy := *cfg.CacheRetry
			if policy.RetryCounter == nil {
				policy.RetryCounter = s.m.Counter(RetriesCounter)
			}
			seed := cfg.RetrySeed + int64(worker+1)*int64(cfg.CacheNodes) + int64(i)
			rt := rpc.NewRetryConn(conn, policy, seed, s.appComp, meter.NewBurner())
			s.retries = append(s.retries, rt)
			conn = rt
		}
		conns[cacheNodeName(i)] = conn
	}
	c := remotecache.NewSingleClient(conns[cacheNodeName(0)])
	if s.smap != nil {
		routed, err := remotecache.NewRoutedClient(conns, s.smap)
		if err != nil {
			return nil, err
		}
		c = routed
	}
	c.Degrade(s.degraded)
	c.SetTelemetry(cfg.Telemetry)
	return c, nil
}

// loopback is an in-process hop from the app to srv; the app pays its
// client-side transport overhead.
func (s *KVService) loopback(srv *rpc.Server) rpc.Conn {
	lb := rpc.NewLoopback(srv, s.appComp, meter.NewBurner(), s.cfg.RPCCost)
	lb.SetMetrics(s.lbm)
	return lb
}

// newLane builds request lane worker (-1 is the default lane): a private
// storage connection, for Remote a private cache client stack, the
// architecture's tier bound to both, and a front door in front. Connections
// in eps are used as given; the rest are loopbacks, with the storage hop
// wrapped under StorageFaultNode.
func (s *KVService) newLane(worker int, eps RemoteEndpoints) (*kvLane, error) {
	dbConn := eps.DB
	if dbConn == nil {
		dbConn = s.loopback(s.node.Server())
		if s.cfg.Faults != nil {
			dbConn = s.cfg.Faults.WrapWorker(StorageFaultNode, worker, dbConn)
		}
	}
	var rc *remotecache.Client
	if s.cfg.Arch == Remote {
		var err error
		if rc, err = s.cacheClient(worker, eps.Cache); err != nil {
			return nil, err
		}
	}
	l := &kvLane{rows: &kvRows{db: storage.NewClient(dbConn)}, tier: s.arch.bind(worker, rc)}
	l.front = s.newFront(l)
	return l, nil
}

// finish builds the architecture and the request lanes. eps carries a
// distributed deployment's connections (zero in process).
func (s *KVService) finish(eps RemoteEndpoints) error {
	cfg := s.cfg
	s.degraded = s.m.Counter(DegradedCounter)
	if cfg.Faults != nil {
		cfg.Faults.RegisterTelemetry(cfg.Telemetry)
	}
	if cfg.Admission != nil {
		if cfg.Admission.MaxInflight <= 0 {
			return fmt.Errorf("core: AdmissionConfig.MaxInflight must be positive")
		}
		s.gate = admission.NewGate(cfg.Admission.MaxInflight, cfg.Admission.QueueDepth, nil)
		s.shedCtr = s.m.Counter(ShedCounter)
		s.dlCtr = s.m.Counter(DeadlineExceededCounter)
		s.telShed = cfg.Telemetry.Counter("admission.shed")
		s.telExpired = cfg.Telemetry.Counter("admission.deadline_exceeded")
		if cfg.Telemetry != nil {
			gate := s.gate
			cfg.Telemetry.RegisterCollector("admission", func(emit func(telemetry.Sample)) {
				st := gate.Stats()
				emit(telemetry.Sample{Name: "admission.inflight", Kind: telemetry.KindGauge, Value: float64(st.Inflight)})
				emit(telemetry.Sample{Name: "admission.waiting", Kind: telemetry.KindGauge, Value: float64(st.Waiting)})
				emit(telemetry.Sample{Name: "admission.offered", Kind: telemetry.KindCounter, Value: float64(st.Offered)})
				emit(telemetry.Sample{Name: "admission.admitted", Kind: telemetry.KindCounter, Value: float64(st.Admitted)})
			})
		}
	}
	var err error
	if s.arch, err = newArchitecture(&s.cfg, kvKit); err != nil {
		return err
	}
	def, err := s.newLane(-1, eps)
	if err != nil {
		return err
	}
	s.KVWorker = KVWorker{s: s, l: def}
	if cfg.Parallelism == 1 {
		return nil
	}
	if !cfg.Arch.hasWorkerLanes() {
		return fmt.Errorf("core: Parallelism > 1 is not supported for the %v architecture", cfg.Arch)
	}
	if s.node == nil {
		return fmt.Errorf("core: Parallelism > 1 requires an in-process deployment")
	}
	s.lanes = make([]*kvLane, cfg.Parallelism)
	for i := range s.lanes {
		if s.lanes[i], err = s.newLane(i, RemoteEndpoints{}); err != nil {
			return err
		}
	}
	return nil
}

// newFront builds a client-facing front door whose handlers run on lane l.
func (s *KVService) newFront(l *kvLane) *rpc.Server {
	front := rpc.NewServer(s.appComp, meter.NewBurner(), s.cfg.RPCCost)
	front.SetMeterHandlerBody(false)
	front.SetPooledResponses(true) // encodeReadOut, encodeAck, handleReadBatch
	if s.cfg.Flight != nil {
		front.SetFlight(s.cfg.Flight.Scope(s.cfg.Arch.String()))
	}
	front.HandleCtx("app.Read", func(sc trace.SpanContext, req []byte) ([]byte, error) { return s.handleRead(l, sc, req) })
	front.HandleCtx("app.Write", func(sc trace.SpanContext, req []byte) ([]byte, error) { return s.handleWrite(l, sc, req) })
	front.HandleCtx("app.ReadBatch", func(sc trace.SpanContext, req []byte) ([]byte, error) { return s.handleReadBatch(l, sc, req) })
	front.HandleCtx("app.WriteBatch", func(sc trace.SpanContext, req []byte) ([]byte, error) { return s.handleWriteBatch(l, sc, req) })
	return front
}

// KVWorker is the client's side of one lane of a KVService, handed to one
// driver goroutine: the service's own default lane, or a pre-built
// parallel lane from Worker(i). Its Read/Write go through the lane's own
// front door, so every hop's transport charge, fault decision and retry
// draw stays on this worker's deterministic stream. The driver plays the
// client; its own CPU is outside the bill (the paper prices the service,
// not its callers).
type KVWorker struct {
	s *KVService
	l *kvLane
	// intendedNS is the next operation's intended arrival instant (unix
	// nanoseconds), set by the open-loop driver via SetIntended before
	// each op. The lane's driver goroutine is the only writer and reader,
	// so a plain field suffices. Zero (closed loop) leaves the flight
	// recorder's queue stage at zero.
	intendedNS int64
}

// SetIntended records the next operation's intended arrival instant (the
// open-loop schedule slot). The flight recorder measures queue wait —
// schedule slip before the handler started — and intended-clock latency
// from it. The zero time clears it.
func (w *KVWorker) SetIntended(t time.Time) {
	if t.IsZero() {
		w.intendedNS = 0
		return
	}
	w.intendedNS = t.UnixNano()
}

// withIntended stamps the pending intended instant (if any) onto a fresh
// request context.
func (w *KVWorker) withIntended(sc trace.SpanContext) trace.SpanContext {
	if w.intendedNS != 0 {
		return sc.WithIntendedUnixNano(w.intendedNS)
	}
	return sc
}

// Worker returns lane i. The service must have been built with
// Parallelism > i.
func (s *KVService) Worker(i int) (ServiceWorker, error) {
	if i < 0 || i >= len(s.lanes) {
		return nil, fmt.Errorf("core: worker %d of %d-lane service", i, len(s.lanes))
	}
	return &KVWorker{s: s, l: s.lanes[i]}, nil
}

// Read drives a client read through the worker's lane. The root span
// opens here: the trace covers the whole client-visible request, and
// each worker's requests open their own, so concurrent traces never
// share spans.
func (w *KVWorker) Read(key string) ([]byte, error) {
	sc, act := w.s.cfg.Tracer.StartRequest("read")
	v, err := frontRead(w.withIntended(sc), w.l.front, key)
	act.End()
	return v, err
}

// Write drives a client write through the worker's lane.
func (w *KVWorker) Write(key string, value []byte) error {
	sc, act := w.s.cfg.Tracer.StartRequest("write")
	err := frontWrite(w.withIntended(sc), w.l.front, key, value)
	act.End()
	return err
}

// ReadDeadline implements DeadlineWorker: the deadline rides the span
// context through the front door (and any transport) to the admission
// gate.
func (w *KVWorker) ReadDeadline(key string, deadline time.Time) ([]byte, error) {
	sc, act := w.s.cfg.Tracer.StartRequest("read")
	v, err := frontRead(w.withIntended(sc).WithDeadline(deadline), w.l.front, key)
	act.End()
	return v, err
}

// WriteDeadline implements DeadlineWorker.
func (w *KVWorker) WriteDeadline(key string, value []byte, deadline time.Time) error {
	sc, act := w.s.cfg.Tracer.StartRequest("write")
	err := frontWrite(w.withIntended(sc).WithDeadline(deadline), w.l.front, key, value)
	act.End()
	return err
}

// LinkedCache returns the Linked tier's cache, or nil on other
// architectures. The elastic controller resizes through it.
func (s *KVService) LinkedCache() *linkedcache.Cache[[]byte] { return s.arch.lc }

// TTLTier returns the LinkedTTL tier's cache, or nil on other
// architectures.
func (s *KVService) TTLTier() *consistency.TTLCache[[]byte] { return s.arch.tc }

// RemoteCacheServer returns the single-node Remote tier's cache server,
// or nil (other architectures, or CacheNodes > 1).
func (s *KVService) RemoteCacheServer() *remotecache.Server { return s.rcServer }

// SetAccessObserver installs a hook observing every successful read's
// key and approximate cached-entry footprint — the elastic controller's
// demand feed. Install it before traffic starts; it is read without
// synchronization on the hot path.
func (s *KVService) SetAccessObserver(fn func(key string, size int64)) { s.obs = fn }

// Front returns the client-facing RPC server.
func (s *KVService) Front() *rpc.Server { return s.l.front }

// ShardManager returns the dynamic shard manager (nil unless ShardMgr
// was configured). The experiment driver calls its Tick on the cadence
// it wants — ticks are not time-based, so runs stay deterministic.
func (s *KVService) ShardManager() *shardmgr.Manager { return s.shardMgr }

// ShardMap returns the multi-node tier's placement map (nil for
// single-node deployments).
func (s *KVService) ShardMap() *cluster.ShardMap { return s.smap }

// HotKeys returns the detector's current top-n served keys with their
// epoch stamps stripped (nil without a ShardMgr config).
func (s *KVService) HotKeys(n int) []shardmgr.HotKey {
	if s.detector == nil {
		return nil
	}
	hks := s.detector.TopK(n)
	for i := range hks {
		hks[i].Key = cluster.TrimEpoch(hks[i].Key)
	}
	return hks
}

// CacheNodeOps reports each cache node's served-request count, keyed by
// shard-map node name — the per-node load spread the hot-shard figure
// reports. Nil for single-node deployments.
func (s *KVService) CacheNodeOps() map[string]int64 {
	if s.rcServers == nil {
		return nil
	}
	out := make(map[string]int64, len(s.rcServers))
	for n, srv := range s.rcServers {
		out[n] = srv.Ops()
	}
	return out
}

// Node exposes the storage node (experiments tune s_D, inject faults).
func (s *KVService) Node() *storage.Node { return s.node }

// Arch implements Service.
func (s *KVService) Arch() Arch { return s.cfg.Arch }

// PreloadItem is one key to bulk-load before a run.
type PreloadItem struct {
	Key  string
	Size int
}

// Preload bulk-loads rows. In-process deployments load through the
// unmetered bootstrap path; remote deployments load through SQL.
func (s *KVService) Preload(items []PreloadItem) error {
	const chunk = 50
	for start := 0; start < len(items); start += chunk {
		end := start + chunk
		if end > len(items) {
			end = len(items)
		}
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
		if _, err := s.l.rows.db.Exec(stmt, params...); err != nil {
			return err
		}
	}
	return nil
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
	case s.rcServer != nil:
		for _, it := range items {
			s.rcServer.Preload(it.Key, ValueFor(it.Key, it.Size))
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

// read serves key through the lane's tier, counts the outcome, and feeds
// the access observer when one is installed (the elastic controller's
// windowed MRC). held is tier.read's: the caller recycles it once it is
// done with v.
func (s *KVService) read(l *kvLane, sc trace.SpanContext, key string) (v, held []byte, err error) {
	v, held, hit, err := l.tier.read(sc, key, l.rows)
	s.countOne(hit)
	if obs := s.obs; obs != nil && err == nil {
		// Approximate the entry's budgeted footprint the way the cache
		// tiers size entries: key + value + per-entry overhead.
		obs(key, int64(len(key)+len(v)+64))
	}
	return v, held, err
}

// write applies a write on lane l. A KV write carries the whole row, so a
// tier that can keep it does; the rest invalidate. value is only valid
// for the call (it aliases the request), so what a tier keeps is a copy.
func (s *KVService) write(l *kvLane, sc trace.SpanContext, key string, value []byte) error {
	if wt, ok := l.tier.(writeThrough[[]byte]); ok {
		return wt.write(sc, key, append([]byte(nil), value...), value, l.rows)
	}
	return l.tier.drop(sc, key, value, l.rows)
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

// admit consults the admission gate for one client request. It returns
// the gate outcome and, for Admitted, the release the handler must call
// when its full-path work finishes. Shed and expired outcomes bump their
// counters here.
func (s *KVService) admit(sc trace.SpanContext) (admission.Outcome, func()) {
	if s.gate == nil {
		return admission.Admitted, func() {}
	}
	b := sc.Breakdown()
	var t0 time.Time
	if b != nil {
		t0 = time.Now()
	}
	sc.Lane().Park() // queueing for a slot is nobody's CPU
	outcome, release := s.gate.Enter(sc.Deadline())
	sc.Lane().Unpark()
	if b != nil {
		b.Add(trace.StageAdmission, time.Since(t0))
	}
	switch outcome {
	case admission.ShedQueueFull:
		s.shedCtr.Inc()
		s.telShed.Inc()
		b.Mark(trace.FlagShed)
	case admission.DeadlineExpired:
		s.dlCtr.Inc()
		s.telExpired.Inc()
		b.Mark(trace.FlagDeadline)
	}
	return outcome, release
}

// readShed is the degraded serve for a shed read: answer from the cache
// tier alone — no storage, no admission slot — so overload responses
// stay cheap and bounded. A tier that cannot peek sheds outright.
// Deliberately not counted: the hit ratio describes the full-path policy,
// not overload triage.
func (s *KVService) readShed(l *kvLane, sc trace.SpanContext, key string) (v, held []byte, ok bool) {
	if p, ok := l.tier.(peeker[[]byte]); ok {
		return p.peek(sc, key)
	}
	return nil, nil, false
}

// encodeReadOut encodes the GetResponse shape {1: found, 2: digest} into
// a transport-pool buffer, then recycles held — the buffer v was borrowed
// from, if any: the digest is the last read of v.
func encodeReadOut(found bool, v, held []byte) []byte {
	var dig [16]byte
	out := wire.Append(rpc.GetBuffer(), func(e *wire.Encoder) {
		e.Bool(1, found)
		if found {
			e.BytesField(2, appendDigest(dig[:0], v))
		}
	})
	rpc.PutBuffer(held)
	return out
}

// encodeAck encodes the write ack shape {1: ok}.
func encodeAck(ok bool) []byte {
	return wire.Append(rpc.GetBuffer(), func(e *wire.Encoder) { e.Bool(1, ok) })
}

// fieldBytes scans a wire message for length-delimited field want and
// returns its body, aliasing buf (nil when absent). The front door reads
// its two one-field shapes with it — the GetRequest key, the GetResponse
// value — the way encodeReadOut writes them: handing wire.Unmarshal a
// message struct moves the struct to the heap.
func fieldBytes(buf []byte, want uint32) (body []byte, err error) {
	err = wire.Decode(buf, func(d *wire.Decoder) error {
		for !d.Done() {
			f, t, err := d.Next()
			if err == nil && f == want && t == wire.TBytes {
				body, err = d.Bytes()
			} else if err == nil {
				err = d.Skip(t)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	return body, err
}

// handleRead is the client-facing read: decode, pass the admission gate,
// serve through the cache hierarchy, apply the application logic, reply
// with the small derived result. The handler is one "app" operation on
// the request's lane: whatever the lane is not carried into a downstream
// component for lands on "app". A shed request is a non-error: it answers
// found=false (or a cache-only hit) so overload is a degraded mode, not a
// failure storm.
func (s *KVService) handleRead(l *kvLane, sc trace.SpanContext, req []byte) ([]byte, error) {
	sc.Lane().EnterOp(s.appComp)
	act, asc := trace.Start(sc, "app", "read")
	defer act.End()
	kb, err := fieldBytes(req, 1)
	if err != nil {
		return nil, err
	}
	// Copied, not aliased: a miss retains the key (cache fills, the
	// access observer) past the request buffer's life.
	key := string(kb)
	outcome, release := s.admit(sc)
	switch outcome {
	case admission.ShedQueueFull:
		act.Annotate("admission", "shed")
		v, held, ok := s.readShed(l, asc, key)
		return encodeReadOut(ok, v, held), nil
	case admission.DeadlineExpired:
		act.Annotate("admission", "deadline")
		return encodeReadOut(false, nil, nil), nil
	}
	defer release()
	v, held, err := s.read(l, asc, key)
	if err != nil {
		return nil, err
	}
	act.SetBytes(len(req), len(v))
	return encodeReadOut(true, v, held), nil
}

// handleWrite is the client-facing write. A shed or expired write is
// acknowledged ok=false and NOT applied: under overload the service
// refuses mutations rather than applying them outside the SLO.
func (s *KVService) handleWrite(l *kvLane, sc trace.SpanContext, req []byte) ([]byte, error) {
	sc.Lane().EnterOp(s.appComp)
	act, asc := trace.Start(sc, "app", "write")
	defer act.End()
	// SetRequest shape {1: key, 2: value}. The key is copied (tiers keep
	// it); the value aliases req, which outlives every use below.
	kb, err := fieldBytes(req, 1)
	if err != nil {
		return nil, err
	}
	value, err := fieldBytes(req, 2)
	if err != nil {
		return nil, err
	}
	key := string(kb)
	outcome, release := s.admit(sc)
	switch outcome {
	case admission.ShedQueueFull:
		act.Annotate("admission", "shed")
		return encodeAck(false), nil
	case admission.DeadlineExpired:
		act.Annotate("admission", "deadline")
		return encodeAck(false), nil
	}
	defer release()
	if err := s.write(l, asc, key, value); err != nil {
		return nil, err
	}
	act.SetBytes(len(req), 0)
	return encodeAck(true), nil
}

// AdmissionStats snapshots the admission gate's conservation counters
// (zero without an AdmissionConfig).
func (s *KVService) AdmissionStats() admission.Stats { return s.gate.Stats() }

// frontRead performs one client read against a front-door server. The
// request is encoded field-by-field from a pooled encoder (GetRequest
// shape {1: key}) and the response buffer cycles back to the transport
// pool: the handler builds its reply from the same pool, and the digest
// is copied out of it, so both sides of the round trip are reusable.
func frontRead(sc trace.SpanContext, front *rpc.Server, key string) ([]byte, error) {
	e := wire.GetEncoder()
	e.String(1, key)
	respBody, err := front.DispatchCtx(sc, "app.Read", e.Bytes())
	wire.PutEncoder(e)
	if err != nil {
		return nil, err
	}
	// GetResponse shape {1: found, 2: value}.
	v, err := fieldBytes(respBody, 2)
	v = append([]byte(nil), v...)
	rpc.PutBuffer(respBody)
	return v, err
}

// frontWrite performs one client write against a front-door server,
// encoding the SetRequest shape {1: key, 2: value, 3: ttl_ms}.
func frontWrite(sc trace.SpanContext, front *rpc.Server, key string, value []byte) error {
	e := wire.GetEncoder()
	e.String(1, key)
	e.BytesField(2, value)
	e.Int64(3, 0)
	respBody, err := front.DispatchCtx(sc, "app.Write", e.Bytes())
	wire.PutEncoder(e)
	rpc.PutBuffer(respBody)
	return err
}

// CacheHitRatio reports the architecture's application-level cache hit
// ratio since construction (0 for Base).
func (s *KVService) CacheHitRatio() float64 { return hitRatio(s.cacheStats()) }

// Degraded returns how many cache operations were demoted to misses or
// no-ops so the service could keep serving through cache faults.
func (s *KVService) Degraded() int64 { return s.degraded.Value() }

// RetryStats returns the cache retry layer's counters summed over the
// default lane and every worker lane (zero when no CacheRetry policy was
// configured).
func (s *KVService) RetryStats() rpc.RetryStats {
	var total rpc.RetryStats
	for _, rt := range s.retries {
		st := rt.Stats()
		total.Calls += st.Calls
		total.Attempts += st.Attempts
		total.Retries += st.Retries
		total.BudgetDenied += st.BudgetDenied
		total.DeadlineExceeded += st.DeadlineExceeded
		total.Failures += st.Failures
		total.BackoffTotal += st.BackoffTotal
	}
	return total
}

// Close implements Service.
func (s *KVService) Close() error { return nil }
