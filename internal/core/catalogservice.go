package core

import (
	"fmt"
	"strconv"
	"strings"

	"cachecost/internal/catalog"
	"cachecost/internal/meter"
	"cachecost/internal/remotecache"
	"cachecost/internal/rpc"
	"cachecost/internal/storage"
	"cachecost/internal/trace"
	"cachecost/internal/wire"
)

// CatalogMode selects which Unity Catalog variant the service runs.
type CatalogMode int

// The two §5.4 variants.
const (
	// ModeObject: production shape — each read composes the rich object
	// from up to 8 SQL queries (Unity Catalog-Object).
	ModeObject CatalogMode = iota
	// ModeKV: heavily denormalized — each read is a single row lookup
	// plus deserialization (Unity Catalog-KV).
	ModeKV
)

// String implements fmt.Stringer.
func (m CatalogMode) String() string {
	if m == ModeObject {
		return "object"
	}
	return "kv"
}

// CatalogServiceConfig assembles a governance service deployment.
type CatalogServiceConfig struct {
	ServiceConfig
	// Mode selects Object vs KV reads.
	Mode CatalogMode
	// Tables is the governed-table population. Default 500 at experiment
	// scale.
	Tables int
	// StatsBytes fixes the per-table stats payload (0 = Figure 3a
	// distribution).
	StatsBytes int
	// Seed drives the corpus generator.
	Seed int64
}

// CatalogService deploys the rich-object application under an
// architecture: the same tiers KVService runs, over live
// *catalog.TableInfo objects. The linked cache holds them as they are; the
// remote cache holds their serialized form — that asymmetry is the §5.4
// comparison.
type CatalogService struct {
	cfg     CatalogServiceConfig
	appComp *meter.Component

	node   *storage.Node
	tables *catalogTables
	tier   tier[*catalog.TableInfo]
	hitCount

	front *rpc.Server
}

// NewCatalogService builds and seeds the deployment.
func NewCatalogService(cfg CatalogServiceConfig) (*CatalogService, error) {
	cfg.ServiceConfig.applyDefaults()
	if cfg.Meter == nil {
		return nil, fmt.Errorf("core: CatalogServiceConfig.Meter is required")
	}
	if cfg.Tables <= 0 {
		cfg.Tables = 500
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	s := &CatalogService{cfg: cfg}
	s.appComp = cfg.Meter.Component("app")

	s.node = storage.NewNode(storage.Config{
		Replicas:           cfg.StorageReplicas,
		BlockCacheBytes:    cfg.StorageCacheBytes,
		Meter:              cfg.Meter,
		DiskPenaltyPerByte: cfg.DiskPenaltyPerByte,
	})
	if err := catalog.Seed(s.node, catalog.SeedConfig{
		Tables:             cfg.Tables,
		Seed:               cfg.Seed,
		Normalized:         cfg.Mode == ModeObject,
		Denormalized:       cfg.Mode == ModeKV,
		StatsBytesOverride: cfg.StatsBytes,
	}); err != nil {
		return nil, err
	}
	db := storage.NewClient(rpc.NewLoopback(s.node.Server(), s.appComp, meter.NewBurner(), cfg.RPCCost))
	s.tables = &catalogTables{app: catalog.NewApp(db), mode: cfg.Mode}

	// The service has one request lane: the default fault stream and, for
	// Remote, one client over one in-process cache node.
	var rc *remotecache.Client
	if cfg.Arch == Remote {
		srv := remotecache.NewServer(remotecache.ServerConfig{
			CapacityBytes: cfg.RemoteCacheBytes,
			Meter:         cfg.Meter,
			Name:          "remotecache",
			RPCCost:       cfg.RPCCost,
		})
		rc = remotecache.NewSingleClient(
			rpc.NewLoopback(srv.RPCServer(), s.appComp, meter.NewBurner(), cfg.RPCCost))
	}
	arch, err := newArchitecture(&s.cfg.ServiceConfig, catalogKit)
	if err != nil {
		return nil, err
	}
	s.tier = arch.bind(-1, rc)

	s.front = rpc.NewServer(s.appComp, meter.NewBurner(), cfg.RPCCost)
	s.front.SetMeterHandlerBody(false)
	s.front.HandleCtx("app.Read", s.handleRead)
	s.front.HandleCtx("app.Write", s.handleWrite)
	return s, nil
}

// Arch implements Service.
func (s *CatalogService) Arch() Arch { return s.cfg.Arch }

// Node exposes the storage node.
func (s *CatalogService) Node() *storage.Node { return s.node }

// tableID parses a workload key ("key-%08d") into a table id.
func tableID(key string) (int64, error) {
	i := strings.LastIndexByte(key, '-')
	if i < 0 {
		return 0, fmt.Errorf("core: malformed catalog key %q", key)
	}
	return strconv.ParseInt(key[i+1:], 10, 64)
}

// catalogKit is the catalog application's object: a live TableInfo
// budgeted at its in-memory footprint, serialized with the wire codec for
// a remote cache.
var catalogKit = objectKit[*catalog.TableInfo]{
	sizeOf: func(k string, o *catalog.TableInfo) int64 { return o.MemSize() + int64(len(k)) },
	encode: func(o *catalog.TableInfo) []byte { return wire.Marshal(o) },
	decode: func(b []byte) (*catalog.TableInfo, error) {
		info := &catalog.TableInfo{}
		return info, wire.Unmarshal(b, info)
	},
}

// catalogTables is the catalog application's storage path: the mode's
// read, version and stats-refresh statements over the service's storage
// connection, each bound to the request's span context (catalog.App.In)
// so it carries the request's trace, deadline and metering lane.
type catalogTables struct {
	app  *catalog.App
	mode CatalogMode
}

// load composes the rich object via the mode's read path.
func (c *catalogTables) load(sc trace.SpanContext, key string) (*catalog.TableInfo, error) {
	id, err := tableID(key)
	if err != nil {
		return nil, err
	}
	if c.mode == ModeObject {
		return c.app.In(sc).GetTableObject(id)
	}
	return c.app.In(sc).GetTableKV(id)
}

func (c *catalogTables) version(sc trace.SpanContext, key string) (uint64, bool, error) {
	id, err := tableID(key)
	if err != nil {
		return 0, false, err
	}
	if c.mode == ModeObject {
		return c.app.In(sc).VersionOfObject(id)
	}
	return c.app.In(sc).VersionOfKV(id)
}

// store refreshes a table's stats payload. It yields only part of the
// object, which is why catalog writes always drop the cached entry.
func (c *catalogTables) store(sc trace.SpanContext, key string, stats []byte) error {
	id, err := tableID(key)
	if err != nil {
		return err
	}
	app := c.app.In(sc)
	if c.mode == ModeObject {
		return app.UpdateTableStats(id, stats)
	}
	// Denormalized write: read-modify-write the materialized object.
	info, err := app.GetTableKV(id)
	if err != nil {
		return err
	}
	info.Stats = stats
	return app.UpdateTableKV(info)
}

func (s *CatalogService) handleRead(sc trace.SpanContext, req []byte) ([]byte, error) {
	sc.Lane().EnterOp(s.appComp)
	var r remotecache.GetRequest
	if err := wire.Unmarshal(req, &r); err != nil {
		return nil, err
	}
	// catalogKit decodes, so info is never borrowed: no held buffer.
	info, _, hit, err := s.tier.read(sc, r.Key, s.tables)
	s.countOne(hit)
	if err != nil {
		return nil, err
	}
	// Application logic over the rich object: resolve a principal's
	// effective privileges (the inheritance-aware view) and digest
	// the stats payload — then reply with the small derived result.
	// The client asked a governance question, not for the raw blob.
	privs := info.AllowedFor("principal_007")
	summary := wire.NewEncoder(64)
	summary.String(1, info.FullName)
	summary.String(2, info.Owner)
	for _, p := range privs {
		summary.String(3, p)
	}
	summary.Uint64(4, uint64(len(info.Constraints)))
	summary.Uint64(5, uint64(len(info.Lineage)))
	summary.BytesField(6, Digest(info.Stats))
	return wire.Marshal(&remotecache.GetResponse{
		Found: true,
		Value: append([]byte(nil), summary.Bytes()...),
	}), nil
}

func (s *CatalogService) handleWrite(sc trace.SpanContext, req []byte) ([]byte, error) {
	sc.Lane().EnterOp(s.appComp)
	var r remotecache.SetRequest
	if err := wire.Unmarshal(req, &r); err != nil {
		return nil, err
	}
	if err := s.tier.drop(sc, r.Key, r.Value, s.tables); err != nil {
		return nil, err
	}
	return wire.Marshal(&remotecache.Ack{OK: true}), nil
}

// Read implements Service: returns the serialized rich object.
func (s *CatalogService) Read(key string) ([]byte, error) {
	respBody, err := s.front.Dispatch("app.Read", wire.Marshal(&remotecache.GetRequest{Key: key}))
	if err != nil {
		return nil, err
	}
	var resp remotecache.GetResponse
	if err := wire.Unmarshal(respBody, &resp); err != nil {
		return nil, err
	}
	return resp.Value, nil
}

// Write implements Service: value is the new stats payload.
func (s *CatalogService) Write(key string, value []byte) error {
	req := wire.Marshal(&remotecache.SetRequest{Key: key, Value: value})
	_, err := s.front.Dispatch("app.Write", req)
	return err
}

// Close implements Service.
func (s *CatalogService) Close() error { return nil }
