package storage

import (
	"fmt"
	"sync"
	"time"

	"cachecost/internal/meter"
	"cachecost/internal/rpc"
	"cachecost/internal/storage/kv"
	"cachecost/internal/storage/plan"
	"cachecost/internal/storage/raft"
	"cachecost/internal/storage/sql"
	"cachecost/internal/telemetry"
	"cachecost/internal/trace"
	"cachecost/internal/wire"
)

// Config parameterizes a database Node.
type Config struct {
	// Replicas is the replication factor (TiKV pods). Default 3.
	Replicas int
	// BlockCacheBytes is the per-replica block-cache budget, the paper's
	// s_D. Default 64 MiB.
	BlockCacheBytes int64
	// PageBytes is the storage page size. Default 16 KiB.
	PageBytes int
	// DiskPenaltyPerByte and DiskPenaltyPerOp tune the modeled disk cost;
	// zero selects the kv defaults.
	DiskPenaltyPerByte float64
	DiskPenaltyPerOp   int
	// Meter receives component attributions; nil disables metering.
	Meter *meter.Meter
	// RPCCost is the transport overhead model for the node's RPC server.
	RPCCost rpc.CostModel
	// FrontendWork is the per-statement CPU burn (Burner units) modeling
	// the SQL front-end cost our lightweight parser does not reproduce:
	// connection management, session state, optimizer work — the
	// machinery the paper finds consuming 40-65% of database CPU (§5.3).
	// Default 49152; set negative to disable.
	FrontendWork int
	// Tracer joins wire-carried span contexts when the node serves TCP
	// connections; loopback callers pass their context in-process. Nil
	// disables the join.
	Tracer *trace.Tracer
	// Telemetry, when set, feeds per-statement latency histograms and
	// rpc dispatch metrics, and registers a pull collector exposing the
	// block-cache hit ratio and raft replication counters.
	Telemetry *telemetry.Registry
	// Durable switches every replica's kv store to the durable tiered
	// engine (WAL + bloom-filtered SSTables). BlockCacheBytes becomes the
	// DRAM value-tier budget; values evicted from it live on the disk
	// tier and are re-read (and priced) on miss. Each replica gets its
	// own in-memory filesystem unless DurableFS supplies one.
	Durable bool
	// DurableFS, when set with Durable, supplies each replica's backing
	// filesystem — a fault.FS for fsync-stall experiments, or a DirFS
	// for real disks.
	DurableFS func(replica int) kv.FS
	// MemtableBytes passes through to the durable engine; zero selects
	// the kv default.
	MemtableBytes int64
}

// nodeName namespaces the node's meter components, spans and metrics.
const nodeName = "storage"

func (c *Config) applyDefaults() {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.BlockCacheBytes == 0 {
		c.BlockCacheBytes = 64 << 20
	}
	if c.PageBytes <= 0 {
		c.PageBytes = 16 << 10
	}
	if c.RPCCost == (rpc.CostModel{}) {
		// A database's request path is markedly more expensive per byte
		// than a cache server's: results pass through executor encoding,
		// session buffers and gRPC-style marshalling.
		c.RPCCost = rpc.CostModel{PerMessage: 8192, PerByte: 2.5}
	}
	if c.FrontendWork == 0 {
		c.FrontendWork = 49152
	}
}

// Node is a replicated SQL database node group: Replicas kv stores kept in
// sync by raft, with SQL served by the leader. The leader parses and
// executes every statement; a write's key-value puts are what raft ships,
// and each follower's store applies them.
type Node struct {
	cfg Config

	// mu serializes statement execution. The paper's cost metric is CPU
	// busy time, not latency, so a single execution lane loses nothing —
	// and it makes the kv busy delta a statement excludes from its
	// executor lap exact.
	mu sync.Mutex

	group  *raft.Group
	db     *plan.DB    // the leader's
	stores []*kv.Store // replica i's; stores[0] is the leader's

	burner   *meter.Burner
	rpcComp  *meter.Component // transport overhead
	sqlComp  *meter.Component // parse + request decode (query processing front-end)
	execComp *meter.Component // plan + execute, minus kv and raft time
	kvComp   *meter.Component // storage engine (pages, block cache, disk penalty)
	raftComp *meter.Component // replication + lease validation

	server *rpc.Server

	// stmtHist records per-statement wall latency by kind; nil (no-op)
	// without telemetry.
	histQuery   *telemetry.Histogram
	histExec    *telemetry.Histogram
	histVersion *telemetry.Histogram
	histBatch   *telemetry.Histogram

	// req is the statement a handler is serving, decoded in place through
	// its table of statement texts; ver and batch are the version check's
	// request and reply and the batch reply, each reused handler after
	// handler. All are guarded by mu.
	req QueryRequest
	ver struct {
		req  VersionRequest
		resp VersionResponse
	}
	batch BatchQueryResponse
}

// NewNode builds the replica group and registers the RPC methods.
func NewNode(cfg Config) *Node {
	cfg.applyDefaults()
	n := &Node{cfg: cfg, burner: meter.NewBurner()}
	n.req.texts = make(stmtTexts)

	if cfg.Meter != nil {
		n.rpcComp = cfg.Meter.Component(nodeName + ".rpc")
		n.sqlComp = cfg.Meter.Component(nodeName + ".sql")
		n.execComp = cfg.Meter.Component(nodeName + ".exec")
		n.kvComp = cfg.Meter.Component(nodeName + ".kv")
		n.raftComp = cfg.Meter.Component(nodeName + ".raft")
	}

	n.stores = make([]*kv.Store, cfg.Replicas)
	for i := range n.stores {
		kcfg := kv.Config{
			PageBytes:          cfg.PageBytes,
			CacheBytes:         cfg.BlockCacheBytes,
			DiskPenaltyPerByte: cfg.DiskPenaltyPerByte,
			DiskPenaltyPerOp:   cfg.DiskPenaltyPerOp,
			Comp:               n.kvComp, // all replicas share the line item
			Burner:             n.burner,
		}
		if cfg.Durable {
			kcfg.MemtableBytes = cfg.MemtableBytes
			if cfg.DurableFS != nil {
				kcfg.FS = cfg.DurableFS(i)
			} else {
				kcfg.FS = kv.NewMemFS()
			}
		}
		n.stores[i] = kv.NewStore(kcfg)
	}
	n.db = plan.NewDB(n.stores[0])
	// Block-cache memory is provisioned per replica; the shared component
	// must carry the total.
	if n.kvComp != nil {
		n.kvComp.SetMemBytes(cfg.BlockCacheBytes * int64(cfg.Replicas))
	}

	n.group = raft.NewGroup(raft.Config{
		Replicas: cfg.Replicas,
		Comp:     n.raftComp,
		Burner:   n.burner,
	}, func(id int) raft.StateMachine {
		if id == 0 {
			return nil // the leader's DB applied the puts as it executed the statement
		}
		return follower{n.stores[id]}
	})

	n.server = rpc.NewServer(n.rpcComp, n.burner, cfg.RPCCost)
	n.server.SetMeterHandlerBody(false) // handlers meter their own internals
	n.server.SetPooledResponses(true)   // every reply is built by encode
	if cfg.Tracer != nil {
		n.server.SetTracer(cfg.Tracer, nodeName+".rpc")
	}
	n.server.HandleCtx("sql.Query", n.handleQuery)
	n.server.HandleCtx("sql.Exec", n.handleExec)
	n.server.HandleCtx("sql.Version", n.handleVersion)
	n.server.HandleCtx("sql.BatchQuery", n.handleBatchQuery)
	if cfg.Telemetry != nil {
		n.histQuery = cfg.Telemetry.Histogram("storage.stmt.latency", "seconds", telemetry.L("stmt", "query"))
		n.histExec = cfg.Telemetry.Histogram("storage.stmt.latency", "seconds", telemetry.L("stmt", "exec"))
		n.histVersion = cfg.Telemetry.Histogram("storage.stmt.latency", "seconds", telemetry.L("stmt", "version"))
		n.histBatch = cfg.Telemetry.Histogram("storage.stmt.latency", "seconds", telemetry.L("stmt", "batch"))
		n.server.SetMetrics(rpc.NewMetrics(cfg.Telemetry, nodeName))
		n.registerTelemetry(cfg.Telemetry)
	}
	return n
}

// registerTelemetry installs a pull collector publishing the node's
// storage-engine and replication state: block-cache hits/misses, disk
// traffic, and raft proposal, ship and lease-check counters. The
// statement path is untouched — everything here reads existing atomics
// or cheap snapshots at scrape time.
func (n *Node) registerTelemetry(reg *telemetry.Registry) {
	lbl := []telemetry.Label{telemetry.L("node", nodeName)}
	reg.RegisterCollector("storage."+nodeName, func(emit func(telemetry.Sample)) {
		db := n.LeaderDB()
		cs := db.Store().CacheStats()
		emit(telemetry.Sample{Name: "storage.block_cache.hits", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(cs.Hits)})
		emit(telemetry.Sample{Name: "storage.block_cache.misses", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(cs.Misses)})
		st := db.Store().Stats()
		emit(telemetry.Sample{Name: "storage.disk.read_bytes", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.DiskReadBytes)})
		emit(telemetry.Sample{Name: "storage.disk.write_bytes", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.DiskWriteBytes)})
		if n.cfg.Durable {
			emit(telemetry.Sample{Name: "storage.disk.reads", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.DiskReads)})
			emit(telemetry.Sample{Name: "storage.wal.fsync", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.WALFsyncs)})
			emit(telemetry.Sample{Name: "storage.wal.appends", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.WALAppends)})
			emit(telemetry.Sample{Name: "storage.wal.bytes", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.WALBytes)})
			emit(telemetry.Sample{Name: "storage.compaction.count", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.Compactions)})
			emit(telemetry.Sample{Name: "storage.compaction.bytes", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.CompactionBytes)})
			emit(telemetry.Sample{Name: "storage.tier.demotions", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.TierDemotions)})
			emit(telemetry.Sample{Name: "storage.tier.promotions", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.TierPromotions)})
			emit(telemetry.Sample{Name: "storage.tier.hits", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.TierHits)})
			emit(telemetry.Sample{Name: "storage.bloom.negatives", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.BloomNegatives)})
			dram, diskLive := db.Store().TierBytes()
			emit(telemetry.Sample{Name: "storage.tier.dram_bytes", Labels: lbl, Kind: telemetry.KindGauge, Value: float64(dram)})
			emit(telemetry.Sample{Name: "storage.tier.disk_bytes", Labels: lbl, Kind: telemetry.KindGauge, Value: float64(diskLive)})
			emit(telemetry.Sample{Name: "storage.recovery.seconds", Labels: lbl, Kind: telemetry.KindGauge, Value: db.Store().RecoveryTime().Seconds()})
		}
		gs := n.group.Stats()
		emit(telemetry.Sample{Name: "raft.proposals", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(gs.Proposals)})
		emit(telemetry.Sample{Name: "raft.ships", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(gs.Ships)})
		emit(telemetry.Sample{Name: "raft.lease_checks", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(gs.LeaseChecks)})
	})
}

// follower is a follower replica's state machine: its store, which puts
// each pair the leader's statement put, keeping the leader's row slice.
// Its puts meter themselves on the shared kv component.
type follower struct{ *kv.Store }

// Apply implements raft.StateMachine.
func (f follower) Apply(cmd raft.Command) { f.Put(cmd.Key, cmd.Value) }

// A statement handler walks its request's lane through the node's
// components in order — sql (decode, parse, front-end burn), then raft
// (the lease check) and exec for a read, or exec and raft (replication)
// for a write, then sql again (result encoding) — entering each as
// its section starts (Lane.EnterOp), so a statement costs one clock read
// per section instead of a stopwatch pair around each. The handler leaves
// the lane where its last section ended; the rpc server that dispatched
// it (handler body metering off) takes it from there.

// lock takes the execution slot, parking the lane if it has to wait:
// queueing behind another statement is nobody's CPU.
func (n *Node) lock(l *meter.Lane) {
	if !n.mu.TryLock() {
		l.Park()
		n.mu.Lock()
		l.Unpark()
	}
}

// burnFrontend charges the per-statement SQL front-end work to the
// front-end component.
func (n *Node) burnFrontend(l *meter.Lane) {
	if n.sqlComp == nil {
		n.burner.Burn(n.cfg.FrontendWork) // unmetered nodes still pay the work
		return
	}
	l.Burn(n.sqlComp, n.burner, n.cfg.FrontendWork)
}

// exec runs fn as one operation of the executor component, net of the
// busy time the kv engine attributed to itself meanwhile (kvBusy).
func (n *Node) exec(l *meter.Lane, fn func() (*plan.ResultSet, error)) (*plan.ResultSet, error) {
	l.EnterOp(n.execComp)
	kv0 := n.kvBusy()
	rs, err := fn()
	l.Exclude(n.kvBusy() - kv0)
	return rs, err
}

// kvBusy is the kv engine's busy time so far, which a section excludes
// as it grows: kv has no request context and keeps its own stopwatch, on
// the same clock the lane reads. Callers hold n.mu, so a delta is their
// statement's alone.
func (n *Node) kvBusy() time.Duration {
	if n.kvComp == nil {
		return 0
	}
	return n.kvComp.Busy()
}

// Server returns the node's RPC server for use with rpc.Serve, loopback or
// direct connections.
func (n *Node) Server() *rpc.Server { return n.server }

// LeaderDB returns the leader's (replica 0's) DB, for white-box tests.
func (n *Node) LeaderDB() *plan.DB { return n.db }

// DataBytes returns the leader's on-disk data size.
func (n *Node) DataBytes() int64 {
	return n.LeaderDB().Store().DataBytes()
}

// Close syncs and closes every replica's store. Only meaningful for
// durable nodes; a no-op otherwise.
func (n *Node) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	var first error
	for _, st := range n.stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Bootstrap executes DDL or seed statements directly, bypassing RPC,
// raft and metering. Use it to set up schemas and preload data without
// polluting an experiment's cost measurements. The leader executes each
// statement and every follower's store applies the puts it made, all as
// a bulk load (kv.Store.BulkLoad): parse, plan, row encoding, memtable,
// flushes, page splits and the block cache do their real work and leave
// the state a metered write would, but no meter component is charged and
// no modeled disk penalty is burned — loading is set-up, billed to
// nobody. n.mu, which every statement handler takes, keeps the scope to
// this call's statements.
func (n *Node) Bootstrap(statements []string, params ...[]sql.Value) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, src := range statements {
		var p []sql.Value
		if i < len(params) {
			p = params[i]
		}
		stmt, err := sql.Parse(src)
		if err == nil {
			n.stores[0].BulkLoad(func() { _, err = n.db.Exec(stmt, p) })
		}
		if err != nil {
			return fmt.Errorf("storage: bootstrap %.60q: %w", src, err)
		}
		for _, st := range n.stores[1:] {
			st.BulkLoad(func() {
				for _, cmd := range n.db.Puts() {
					st.Put(cmd.Key, cmd.Value)
				}
			})
		}
	}
	return nil
}

// BootstrapExec runs one parameterized statement on the leader, and its
// puts on every follower, without metering (bulk loading).
func (n *Node) BootstrapExec(src string, params ...sql.Value) error {
	return n.Bootstrap([]string{src}, params)
}

// parseStatement is a statement's opening sql section, under a
// "storage.sql" parse span the caller ends: request decode into n.req,
// parse and, for a statement of the kind the method takes (query: a
// SELECT; otherwise anything but), the front-end burn. Callers hold n.mu
// and reset n.req before releasing it.
func (n *Node) parseStatement(sc trace.SpanContext, req []byte, query bool) (stmt sql.Stmt, act trace.Active, err error) {
	sc.Lane().EnterOp(n.sqlComp)
	act, _ = trace.Start(sc, "storage.sql", "parse")
	n.req.reset()
	if err = wire.Unmarshal(req, &n.req); err == nil {
		stmt, err = n.req.stmt.Parse(n.req.SQL)
	}
	if _, sel := stmt.(*sql.SelectStmt); err == nil && sel != query {
		err = fmt.Errorf("storage: a SELECT goes to sql.Query or sql.BatchQuery, any other statement to sql.Exec")
	}
	if err == nil {
		n.burnFrontend(sc.Lane())
		act.SetBytes(len(req), 0)
	}
	return stmt, act, err
}

// validateLease is the transaction layer's check before a local read: a
// raft section, entered here so that it and the executor section after it
// cost one clock read each.
func (n *Node) validateLease(sc trace.SpanContext) *plan.DB {
	sc.Lane().Enter(n.raftComp)
	n.group.ValidateLeaseCtx(sc)
	return n.LeaderDB()
}

// encode is the closing sql section: result encoding, into a
// transport-pool buffer the transport recycles (DESIGN.md, "Buffer
// ownership").
func (n *Node) encode(l *meter.Lane, m wire.Marshaler) []byte {
	l.EnterOp(n.sqlComp)
	return wire.AppendMarshal(rpc.GetBuffer(), m)
}

// handleQuery serves read-only statements on the leader after validating
// its lease.
func (n *Node) handleQuery(sc trace.SpanContext, req []byte) ([]byte, error) {
	lane := sc.Lane()
	n.lock(lane)
	defer n.mu.Unlock()
	defer n.req.reset()
	lane.CountStatement()
	defer n.histQuery.ObserveSince(time.Now())

	stmt, sqlAct, err := n.parseStatement(sc, req, true)
	sqlAct.End()
	if err != nil {
		return nil, err
	}
	db := n.validateLease(sc)
	kvAct, _ := trace.Start(sc, "storage.kv", "exec")
	rs, err := n.exec(lane, func() (*plan.ResultSet, error) { return db.Exec(stmt, n.req.Params) })
	kvAct.End()
	if err != nil {
		return nil, err
	}
	return n.encode(lane, rs), nil
}

// handleExec serves write statements: parsed and executed on the
// leader, then replicated as the key-value puts the statement made. A
// statement that fails puts nothing and proposes nothing.
func (n *Node) handleExec(sc trace.SpanContext, req []byte) ([]byte, error) {
	lane := sc.Lane()
	n.lock(lane)
	defer n.mu.Unlock()
	defer n.req.reset()
	lane.CountStatement()
	defer n.histExec.ObserveSince(time.Now())

	stmt, sqlAct, err := n.parseStatement(sc, req, false)
	sqlAct.End()
	if err != nil {
		return nil, err
	}
	rs, err := n.exec(lane, func() (*plan.ResultSet, error) { return n.db.Exec(stmt, n.req.Params) })
	if err != nil {
		return nil, err
	}
	// The replication slice of the write is informational sub-stage time:
	// for an in-process request it is already inside the client-observed
	// StageStorage, so conservation sums exclude StageRaft. The followers'
	// puts meter themselves on kv, so the raft section excludes kv's busy
	// time, as exec's does.
	raftT0 := lane.StageClock()
	lane.Enter(n.raftComp)
	kv0 := n.kvBusy()
	n.group.ProposeCtx(sc, n.db.Puts()...)
	lane.Exclude(n.kvBusy() - kv0)
	lane.AddStage(meter.StageRaft, raftT0)
	return n.encode(lane, rs), nil
}

// handleVersion serves the §5.5 version check. As in TiDB, it traverses
// the whole read path: request decode and SQL-layer work, lease
// validation, and a full row fetch from the storage engine — only to
// return eight bytes. The fetch is a SELECT * by primary key, its text
// built on the stack, interned and parsed into the node's statement
// scratch; the table name aliases the request, which outlives the check.
func (n *Node) handleVersion(sc trace.SpanContext, req []byte) ([]byte, error) {
	lane := sc.Lane()
	n.lock(lane)
	defer n.mu.Unlock()
	defer n.req.reset()
	lane.CountStatement()
	defer n.histVersion.ObserveSince(time.Now())

	lane.EnterOp(n.sqlComp)
	sqlAct, _ := trace.Start(sc, "storage.sql", "parse")
	vr := &n.ver.req
	*vr = VersionRequest{}
	if err := wire.Decode(req, vr.UnmarshalWire); err != nil {
		sqlAct.End()
		return nil, err
	}
	// Even a version check traverses the SQL front-end (§5.5).
	n.burnFrontend(lane)
	sqlAct.Annotate("sql.op", "version-check")
	sqlAct.End()
	db := n.validateLease(sc)
	resp := &n.ver.resp
	*resp = VersionResponse{}
	kvAct, _ := trace.Start(sc, "storage.kv", "exec")
	_, err := n.exec(lane, func() (*plan.ResultSet, error) {
		t, err := db.Catalog().Lookup(vr.Table)
		if err != nil {
			return nil, err
		}
		// Fetch the full row (the engine has no narrower path — exactly
		// the paper's observation) and report its version.
		var src [128]byte
		b := append(append(src[:0], "SELECT * FROM "...), vr.Table...)
		b = append(append(append(b, " WHERE "...), t.PKCol()...), " = ?"...)
		text := n.req.texts.intern(b)
		stmt, err := n.req.stmt.Parse(text)
		if err != nil {
			return nil, err
		}
		pk := [1]sql.Value{vr.PK}
		rs, err := db.Exec(stmt, pk[:])
		if err != nil {
			return nil, err
		}
		resp.Found = len(rs.Rows) > 0
		if ver, ok := db.VersionOf(vr.Table, vr.PK); ok {
			resp.Version = ver
		}
		return rs, nil
	})
	kvAct.End()
	*vr = VersionRequest{}
	if err != nil {
		return nil, err
	}
	return n.encode(lane, resp), nil
}
