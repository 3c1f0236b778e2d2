package core

import (
	"fmt"
	"strconv"
	"strings"

	"cachecost/internal/catalog"
	"cachecost/internal/cluster"
	"cachecost/internal/consistency"
	"cachecost/internal/linkedcache"
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
// architecture. The linked cache holds live *catalog.TableInfo objects;
// the remote cache holds their serialized form — that asymmetry is the
// §5.4 comparison.
type CatalogService struct {
	cfg     CatalogServiceConfig
	m       *meter.Meter
	appComp *meter.Component

	node *storage.Node
	app  *catalog.App

	rcServer *remotecache.Server
	rc       *remotecache.Client

	lc      *linkedcache.Cache[*catalog.TableInfo]
	vc      *consistency.VersionedCache[*catalog.TableInfo]
	oc      *consistency.OwnedCache[*catalog.TableInfo]
	sharder *cluster.Sharder

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
	s := &CatalogService{cfg: cfg, m: cfg.Meter}
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
	s.app = catalog.NewApp(db)

	objSize := func(k string, o *catalog.TableInfo) int64 { return o.MemSize() + int64(len(k)) }
	switch cfg.Arch {
	case Remote:
		s.rcServer = remotecache.NewServer(remotecache.ServerConfig{
			CapacityBytes: cfg.RemoteCacheBytes,
			Meter:         cfg.Meter,
			Name:          "remotecache",
			RPCCost:       cfg.RPCCost,
		})
		s.rc = remotecache.NewSingleClient(
			rpc.NewLoopback(s.rcServer.RPCServer(), s.appComp, meter.NewBurner(), cfg.RPCCost))
	case Linked:
		s.lc = linkedcache.New(linkedcache.Config{
			CapacityBytes: cfg.AppCacheBytes,
			Meter:         cfg.Meter,
			Name:          "app.cache",
		}, objSize)
		s.m.Component("app.cache").SetMemBytes(cfg.AppCacheBytes * int64(cfg.AppReplicas))
	case LinkedVersion:
		s.vc = consistency.NewVersionedCache[*catalog.TableInfo](linkedcache.Config{
			CapacityBytes: cfg.AppCacheBytes,
			Meter:         cfg.Meter,
			Name:          "app.cache",
		}, func(k string, o *catalog.TableInfo) int64 { return o.MemSize() + int64(len(k)) })
		s.m.Component("app.cache").SetMemBytes(cfg.AppCacheBytes * int64(cfg.AppReplicas))
	case LinkedOwned:
		s.sharder = cluster.NewSharder(64)
		s.oc = consistency.NewOwnedCache[*catalog.TableInfo]("app0", s.sharder, linkedcache.Config{
			CapacityBytes: cfg.AppCacheBytes,
			Meter:         cfg.Meter,
			Name:          "app.cache",
		}, func(k string, o *catalog.TableInfo) int64 { return o.MemSize() + int64(len(k)) })
		s.m.Component("app.cache").SetMemBytes(cfg.AppCacheBytes * int64(cfg.AppReplicas))
	}

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

// fetch reads the rich object from storage via the mode's read path.
// app is the application bound to the request (catalog.App.In).
func (s *CatalogService) fetch(app *catalog.App, id int64) (*catalog.TableInfo, error) {
	if s.cfg.Mode == ModeObject {
		return app.GetTableObject(id)
	}
	return app.GetTableKV(id)
}

func (s *CatalogService) fetchVersioned(app *catalog.App, key string) (*catalog.TableInfo, uint64, error) {
	id, err := tableID(key)
	if err != nil {
		return nil, 0, err
	}
	info, err := s.fetch(app, id)
	if err != nil {
		return nil, 0, err
	}
	ver, _, err := s.version(app, id)
	if err != nil {
		return nil, 0, err
	}
	return info, ver, nil
}

func (s *CatalogService) version(app *catalog.App, id int64) (uint64, bool, error) {
	if s.cfg.Mode == ModeObject {
		return app.VersionOfObject(id)
	}
	return app.VersionOfKV(id)
}

// read serves one rich-object read through the architecture; every
// downstream call carries the request's span context.
func (s *CatalogService) read(sc trace.SpanContext, key string) (*catalog.TableInfo, error) {
	id, err := tableID(key)
	if err != nil {
		return nil, err
	}
	app := s.app.In(sc)
	fetchVersioned := func(k string) (*catalog.TableInfo, uint64, error) { return s.fetchVersioned(app, k) }
	switch s.cfg.Arch {
	case Base:
		return s.fetch(app, id)
	case Remote:
		// The remote cache stores the serialized object: a hit pays RPC
		// plus deserialization.
		if buf, found, err := s.rc.GetCtx(sc, key); err != nil {
			return nil, err
		} else if found {
			info := &catalog.TableInfo{}
			if err := wire.Unmarshal(buf, info); err != nil {
				return nil, err
			}
			return info, nil
		}
		info, err := s.fetch(app, id)
		if err != nil {
			return nil, err
		}
		if err := s.rc.SetTTLCtx(sc, key, wire.Marshal(info), 0); err != nil {
			return nil, err
		}
		return info, nil
	case Linked:
		info, _, err := s.lc.GetOrLoad(key, func() (*catalog.TableInfo, error) { return s.fetch(app, id) })
		return info, err
	case LinkedVersion:
		info, _, err := s.vc.Read(key,
			func(string) (uint64, bool, error) { return s.version(app, id) },
			fetchVersioned)
		return info, err
	case LinkedOwned:
		info, _, err := s.oc.Read(key, fetchVersioned)
		return info, err
	default:
		return nil, fmt.Errorf("core: unknown arch %v", s.cfg.Arch)
	}
}

// write refreshes a table's stats payload and maintains the caches.
func (s *CatalogService) write(sc trace.SpanContext, key string, stats []byte) error {
	id, err := tableID(key)
	if err != nil {
		return err
	}
	app := s.app.In(sc)
	storeWrite := func() error {
		if s.cfg.Mode == ModeObject {
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
	switch s.cfg.Arch {
	case Base:
		return storeWrite()
	case Remote:
		if err := storeWrite(); err != nil {
			return err
		}
		_, err := s.rc.DeleteCtx(sc, key)
		return err
	case Linked:
		if err := storeWrite(); err != nil {
			return err
		}
		s.lc.Delete(key)
		return nil
	case LinkedVersion:
		if err := storeWrite(); err != nil {
			return err
		}
		s.vc.Invalidate(key)
		return nil
	case LinkedOwned:
		// The owner routes the write but does not re-materialize the rich
		// object inline; invalidating forces the next read to re-compose
		// under a fresh ownership assignment, which preserves
		// linearizability (we are the only writer for owned keys).
		if !s.oc.Owns(key) {
			return consistency.ErrNotOwner
		}
		if err := storeWrite(); err != nil {
			return err
		}
		s.oc.Invalidate(key)
		return nil
	default:
		return fmt.Errorf("core: unknown arch %v", s.cfg.Arch)
	}
}

func (s *CatalogService) handleRead(sc trace.SpanContext, req []byte) ([]byte, error) {
	sc.Lane().EnterOp(s.appComp)
	var r remotecache.GetRequest
	if err := wire.Unmarshal(req, &r); err != nil {
		return nil, err
	}
	info, err := s.read(sc, r.Key)
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
	if err := s.write(sc, r.Key, r.Value); err != nil {
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

// cacheStats implements hitRatioReporter: cumulative application-level
// cache (hits, reads).
func (s *CatalogService) cacheStats() (hits, reads int64) {
	switch s.cfg.Arch {
	case Remote:
		st := s.rcServer.Stats()
		return st.Hits, st.Hits + st.Misses
	case Linked:
		st := s.lc.Stats()
		return st.Hits, st.Hits + st.Misses
	case LinkedVersion:
		st := s.vc.Stats()
		return st.Hits, st.Reads
	case LinkedOwned:
		st := s.oc.Stats()
		return st.AuthorityHits, st.Reads
	default:
		return 0, 0
	}
}

// Close implements Service.
func (s *CatalogService) Close() error { return nil }
