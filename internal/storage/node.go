package storage

import (
	"fmt"
	"sync"
	"time"
	"unsafe"

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
// sync by statement-based raft replication, with SQL served by the leader.
type Node struct {
	cfg Config

	// mu serializes statement execution. The paper's cost metric is CPU
	// busy time, not latency, so a single execution lane loses nothing —
	// and it makes the kv busy delta a statement excludes from its
	// executor lap exact.
	mu sync.Mutex

	group *raft.Group
	dbs   []*plan.DB

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

	// lastResult holds each replica's most recent apply result, its DB's
	// own (plan.DB.Exec); indexed by replica id, guarded by mu (appliers
	// run under Propose, which the handlers call while holding mu).
	lastResult []*plan.ResultSet

	// req is the statement a handler is serving, decoded in place; texts
	// is the table of statement texts it and the appliers decode through.
	// ver and batch are the version check's request and reply and the
	// batch reply, each reused handler after handler. All are guarded by
	// mu.
	req   QueryRequest
	texts stmtTexts
	ver   struct {
		req  VersionRequest
		resp VersionResponse
	}
	batch BatchQueryResponse

	applyErrMu sync.Mutex
	applyErr   error // first replication apply error, for tests/diagnostics
}

// NewNode builds the replica group and registers the RPC methods.
func NewNode(cfg Config) *Node {
	cfg.applyDefaults()
	n := &Node{cfg: cfg, burner: meter.NewBurner(), texts: make(stmtTexts)}
	n.req.texts = n.texts

	if cfg.Meter != nil {
		n.rpcComp = cfg.Meter.Component(nodeName + ".rpc")
		n.sqlComp = cfg.Meter.Component(nodeName + ".sql")
		n.execComp = cfg.Meter.Component(nodeName + ".exec")
		n.kvComp = cfg.Meter.Component(nodeName + ".kv")
		n.raftComp = cfg.Meter.Component(nodeName + ".raft")
	}

	stores := make([]*kv.Store, cfg.Replicas)
	n.lastResult = make([]*plan.ResultSet, cfg.Replicas)
	for i := range stores {
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
		stores[i] = kv.NewStore(kcfg)
	}
	// Raft applies replica 0 first, as Bootstrap runs it first: the
	// leader, whose rows the followers' stores share.
	n.dbs = plan.NewReplicas(stores)
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
		return &applier{node: n, id: id, req: QueryRequest{texts: n.texts}}
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
	if reg == nil {
		return
	}
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

// applier executes replicated statements against one replica's DB.
type applier struct {
	node *Node
	id   int
	// req is the command being applied, decoded in place. The raft
	// group's lock serializes an applier's calls (ProposeCtx), and
	// handleExec's n.mu guards the text table it shares with the node.
	req QueryRequest
}

// Apply implements raft.StateMachine.
func (a *applier) Apply(cmd raft.Command) { a.ApplyCtx(trace.SpanContext{}, cmd) }

// ApplyCtx implements raft.ContextApplier. Statement-based replication:
// every replica re-parses and re-executes the statement, encoding every
// row it writes, paying the same CPU the leader paid — the replication
// cost the paper's write path carries. What a follower stores is the
// leader's row wherever its own encodes to the same bytes
// (plan.NewReplicas): one row per write, not one per replica. It runs
// inside handleExec's Propose and walks that request's lane on through
// sql and exec; handleExec re-enters sql afterwards.
func (a *applier) ApplyCtx(sc trace.SpanContext, cmd raft.Command) {
	defer a.req.reset()
	if err := a.req.decodeInPlace(cmd.Value); err != nil {
		a.node.noteApplyErr(fmt.Errorf("storage: replica %d: corrupt command: %w", a.id, err))
		return
	}
	n, lane := a.node, sc.Lane()
	lane.EnterOp(n.sqlComp)
	stmt, err := a.req.stmt.Parse(a.req.SQL)
	if err != nil {
		n.noteApplyErr(fmt.Errorf("storage: replica %d: %w", a.id, err))
		return
	}
	rs, err := n.exec(lane, func() (*plan.ResultSet, error) { return n.dbs[a.id].Exec(stmt, a.req.Params) })
	if err != nil {
		n.noteApplyErr(fmt.Errorf("storage: replica %d: %w", a.id, err))
		return
	}
	n.lastResult[a.id] = rs
}

func (n *Node) noteApplyErr(err error) {
	n.applyErrMu.Lock()
	defer n.applyErrMu.Unlock()
	if n.applyErr == nil {
		n.applyErr = err
	}
}

// firstApplyErr returns the first replication apply error, if any.
func (n *Node) firstApplyErr() error {
	n.applyErrMu.Lock()
	defer n.applyErrMu.Unlock()
	return n.applyErr
}

// A statement handler walks its request's lane through the node's
// components in order — sql (decode, parse, front-end burn), raft (lease
// or replication), exec, sql again (result encoding) — entering each as
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
// busy time the kv engine attributed to itself meanwhile: kv has no
// request context and keeps its own stopwatch, on the same clock the lane
// reads. Callers hold n.mu, so the kv delta is this statement's alone.
func (n *Node) exec(l *meter.Lane, fn func() (*plan.ResultSet, error)) (*plan.ResultSet, error) {
	if n.execComp == nil {
		return fn()
	}
	l.EnterOp(n.execComp)
	kv0 := n.kvComp.Busy()
	rs, err := fn()
	l.Exclude(n.kvComp.Busy() - kv0)
	return rs, err
}

// Server returns the node's RPC server for use with rpc.Serve, loopback or
// direct connections.
func (n *Node) Server() *rpc.Server { return n.server }

// LeaderDB returns the leader's (replica 0's) DB, for white-box tests.
func (n *Node) LeaderDB() *plan.DB { return n.dbs[0] }

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
	for _, db := range n.dbs {
		if err := db.Store().Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Bootstrap executes DDL or seed statements directly against every
// replica, bypassing RPC, raft and metering. Use it to set up schemas
// and preload data without polluting an experiment's cost measurements.
// Each replica runs the statements as a bulk load (kv.Store.BulkLoad):
// parse, plan, row encoding, memtable, flushes, page splits and the
// block cache do their real work and leave the state a metered write
// would, but no meter component is charged and no modeled disk penalty
// is burned — loading is set-up, billed to nobody. n.mu, which every
// statement handler takes, keeps the scope to this call's statements.
func (n *Node) Bootstrap(statements []string, params ...[]sql.Value) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, src := range statements {
		stmt, err := sql.Parse(src)
		if err != nil {
			return fmt.Errorf("storage: bootstrap %q: %w", truncate(src, 60), err)
		}
		var p []sql.Value
		if i < len(params) {
			p = params[i]
		}
		for _, db := range n.dbs {
			db.Store().BulkLoad(func() { _, err = db.Exec(stmt, p) })
			if err != nil {
				return fmt.Errorf("storage: bootstrap %q: %w", truncate(src, 60), err)
			}
		}
	}
	return nil
}

// BootstrapExec runs one parameterized statement on every replica without
// metering (bulk loading).
func (n *Node) BootstrapExec(src string, params ...sql.Value) error {
	return n.Bootstrap([]string{src}, params)
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// parseStatement opens a statement's sql section: request decode into
// n.req and parse, under a "storage.sql" parse span the caller ends.
// Callers hold n.mu and reset n.req before releasing it.
func (n *Node) parseStatement(sc trace.SpanContext, req []byte) (stmt sql.Stmt, act trace.Active, err error) {
	sc.Lane().EnterOp(n.sqlComp)
	act, _ = trace.Start(sc, "storage.sql", "parse")
	if err = n.req.decodeInPlace(req); err == nil {
		stmt, err = n.req.stmt.Parse(n.req.SQL)
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

	stmt, sqlAct, err := n.parseStatement(sc, req)
	if err != nil {
		sqlAct.End()
		return nil, err
	}
	if _, ok := stmt.(*sql.SelectStmt); !ok {
		sqlAct.End()
		return nil, fmt.Errorf("storage: sql.Query only accepts SELECT; use sql.Exec")
	}
	n.burnFrontend(lane)
	sqlAct.SetBytes(len(req), 0)
	sqlAct.End()
	db := n.validateLease(sc)
	kvAct, _ := trace.Start(sc, "storage.kv", "exec")
	rs, err := n.exec(lane, func() (*plan.ResultSet, error) { return db.Exec(stmt, n.req.Params) })
	kvAct.End()
	if err != nil {
		return nil, err
	}
	return n.encode(lane, rs), nil
}

// handleExec serves write statements: parsed for validation on the
// front-end, then replicated through raft and applied on every replica.
func (n *Node) handleExec(sc trace.SpanContext, req []byte) ([]byte, error) {
	lane := sc.Lane()
	n.lock(lane)
	defer n.mu.Unlock()
	defer n.req.reset()
	lane.CountStatement()
	defer n.histExec.ObserveSince(time.Now())

	stmt, sqlAct, err := n.parseStatement(sc, req)
	if err != nil {
		sqlAct.End()
		return nil, err
	}
	if _, ok := stmt.(*sql.SelectStmt); ok {
		sqlAct.End()
		return nil, fmt.Errorf("storage: sql.Exec does not accept SELECT; use sql.Query")
	}
	n.burnFrontend(lane)
	sqlAct.SetBytes(len(req), 0)
	sqlAct.End()
	// Dry-run validation on the leader would double-apply; instead rely
	// on the apply path and surface its error.
	n.applyErrMu.Lock()
	n.applyErr = nil
	n.applyErrMu.Unlock()

	cmd := raft.Command{
		Op:    raft.OpPut,
		Key:   cmdKey(n.req.SQL),
		Value: encodeCmd(&n.req),
	}
	// The replication slice of the write is informational sub-stage time:
	// for an in-process request it is already inside the client-observed
	// StageStorage, so conservation sums exclude StageRaft.
	raftT0 := lane.StageClock()
	lane.Enter(n.raftComp) // the ships' laps; each replica's apply walks on from here
	_, perr := n.group.ProposeCtx(sc, cmd)
	rpc.PutBuffer(cmd.Value)
	lane.AddStage(meter.StageRaft, raftT0)
	if perr != nil {
		return nil, perr
	}
	if err := n.firstApplyErr(); err != nil {
		return nil, err
	}
	// Every replica applied the statement; the leader's result is its
	// answer.
	return n.encode(lane, n.lastResult[0]), nil
}

// cmdKey is a proposed command's key: the statement's first 32 bytes.
// The group reads it only for its length, which the ship burn prices, so
// it is the statement text itself, read-only, not a copy.
func cmdKey(stmt string) []byte {
	return unsafe.Slice(unsafe.StringData(stmt), min(len(stmt), 32))
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
		text := n.texts.intern(b)
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
