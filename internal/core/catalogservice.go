package core

import (
	"fmt"
	"strconv"
	"strings"

	"cachecost/internal/catalog"
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
// architecture: the same front door, parts and tiers KVService runs, over
// live *catalog.TableInfo objects. The linked cache holds them as they
// are; the remote cache holds their serialized form — that asymmetry is
// the §5.4 comparison. A read answers a governance summary; a write
// refreshes part of the object, so it always drops the cached entry.
type CatalogService struct {
	service[*catalog.TableInfo]
}

// NewCatalogService builds and seeds the deployment.
func NewCatalogService(cfg CatalogServiceConfig) (*CatalogService, error) {
	if cfg.Tables <= 0 {
		cfg.Tables = 500
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	s := &CatalogService{}
	if err := s.build(cfg.ServiceConfig, true); err != nil {
		return nil, err
	}
	if err := catalog.Seed(s.node, catalog.SeedConfig{
		Tables:             cfg.Tables,
		Seed:               cfg.Seed,
		Normalized:         cfg.Mode == ModeObject,
		Denormalized:       cfg.Mode == ModeKV,
		StatsBytesOverride: cfg.StatsBytes,
	}); err != nil {
		return nil, err
	}
	if err := s.finish(application[*catalog.TableInfo]{
		kit: catalogKit,
		source: func(db *storage.Client) source[*catalog.TableInfo] {
			return &catalogTables{app: catalog.NewApp(db), mode: cfg.Mode}
		},
		answer: governanceSummary,
	}, RemoteEndpoints{}); err != nil {
		return nil, err
	}
	return s, nil
}

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

// load composes the rich object via the mode's read path. The object
// shares nothing with the responses it was read from, so nothing is held.
func (c *catalogTables) load(sc trace.SpanContext, key string) (*catalog.TableInfo, []byte, error) {
	id, err := tableID(key)
	if err != nil {
		return nil, nil, err
	}
	var info *catalog.TableInfo
	if c.mode == ModeObject {
		info, err = c.app.In(sc).GetTableObject(id)
	} else {
		info, err = c.app.In(sc).GetTableKV(id)
	}
	return info, nil, err
}

func (c *catalogTables) version(sc trace.SpanContext, key string) (uint64, error) {
	id, err := tableID(key)
	if err != nil {
		return 0, err
	}
	app := c.app.In(sc)
	var ver uint64
	if c.mode == ModeObject {
		ver, _, err = app.VersionOfObject(id)
	} else {
		ver, _, err = app.VersionOfKV(id)
	}
	return ver, err
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

// governanceSummary is the application logic over the rich object:
// resolve a principal's effective privileges (the inheritance-aware view)
// and digest the stats payload. The client asked a governance question,
// not for the raw blob, so the reply is the small derived result.
func governanceSummary(e *wire.Encoder, info *catalog.TableInfo) int {
	sum := wire.GetEncoder()
	sum.String(1, info.FullName)
	sum.String(2, info.Owner)
	for _, p := range info.AllowedFor("principal_007") {
		sum.String(3, p)
	}
	sum.Uint64(4, uint64(len(info.Constraints)))
	sum.Uint64(5, uint64(len(info.Lineage)))
	var dig [16]byte
	sum.BytesField(6, appendDigest(dig[:0], info.Stats))
	e.BytesField(2, sum.Bytes())
	wire.PutEncoder(sum)
	return int(info.MemSize())
}
