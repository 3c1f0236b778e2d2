package catalog

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"cachecost/internal/storage"
	"cachecost/internal/storage/sql"
	"cachecost/internal/trace"
	"cachecost/internal/wire"
)

// App is the data-governance application logic, bound to a database
// client. It is deliberately stateless: caching is layered on top by the
// architecture assemblies in internal/core, so the same App serves Base,
// Remote and Linked configurations.
type App struct {
	db *storage.Client
	sc trace.SpanContext // carried on every statement; zero outside a request
}

// NewApp binds the application to a database client.
func NewApp(db *storage.Client) *App { return &App{db: db} }

// In returns the application bound to one request's span context, so the
// statements it issues carry the request's trace, deadline and metering
// lane to the storage node.
func (a *App) In(sc trace.SpanContext) *App { return &App{db: a.db, sc: sc} }

// ObjectQueryCount is the number of SQL queries one GetTableObject issues
// — the paper's "up to 8 SQL queries" for a getTable (§2.2).
const ObjectQueryCount = 8

// GetTableObject performs the production read path: 8 SQL queries plus
// application-side composition of the rich object. Each query's result
// borrows its response until released, so the object clones every name,
// string and payload it keeps.
//
//  1. tables row (name, schema, owner, properties blob, stats payload)
//  2. schemas row (name, parent catalog)
//  3. catalogs row (name)
//  4. grants at table level        (JOIN principals for names)
//  5. grants at schema level       (inherited downward)
//  6. grants at catalog level      (inherited downward)
//  7. constraints for the table
//  8. lineage edges for the table
func (a *App) GetTableObject(id int64) (*TableInfo, error) {
	// 1: the table row.
	trs, err := a.db.QueryCtx(a.sc, "SELECT name, schema_id, owner_name, props, stats FROM tables WHERE id = ?", sql.Int64(id))
	if err != nil {
		return nil, err
	}
	defer trs.Release()
	if len(trs.Rows) == 0 {
		return nil, fmt.Errorf("catalog: no table %d", id)
	}
	row := trs.Rows[0]
	info := &TableInfo{
		ID:    id,
		Name:  strings.Clone(row[0].Str),
		Owner: strings.Clone(row[2].Str),
	}
	schemaID := row[1].Int
	props, err := decodeProps(row[3].Blob)
	if err != nil {
		return nil, err
	}
	info.Properties = props
	info.Stats = bytes.Clone(row[4].Blob)

	// 2: parent schema.
	srs, err := a.db.QueryCtx(a.sc, "SELECT name, catalog_id FROM schemas WHERE id = ?", sql.Int64(schemaID))
	if err != nil {
		return nil, err
	}
	defer srs.Release()
	if len(srs.Rows) == 0 {
		return nil, fmt.Errorf("catalog: table %d has dangling schema %d", id, schemaID)
	}
	info.SchemaName = strings.Clone(srs.Rows[0][0].Str)
	catalogID := srs.Rows[0][1].Int

	// 3: parent catalog.
	crs, err := a.db.QueryCtx(a.sc, "SELECT name FROM catalogs WHERE id = ?", sql.Int64(catalogID))
	if err != nil {
		return nil, err
	}
	defer crs.Release()
	if len(crs.Rows) == 0 {
		return nil, fmt.Errorf("catalog: schema %d has dangling catalog %d", schemaID, catalogID)
	}
	info.CatalogName = strings.Clone(crs.Rows[0][0].Str)
	info.FullName = info.CatalogName + "." + info.SchemaName + "." + info.Name

	// 4-6: grants at each level of the hierarchy; inheritance is the
	// application's job, not the database's.
	for _, lvl := range []struct {
		securable int64
		source    string
	}{
		{id, "table"},
		{schemaIDBase + schemaID, "schema"},
		{catalogIDBase + catalogID, "catalog"},
	} {
		grs, err := a.db.QueryCtx(a.sc,
			"SELECT principals.name, grants.privilege FROM grants JOIN principals ON grants.principal_id = principals.id WHERE grants.securable_id = ?",
			sql.Int64(lvl.securable))
		if err != nil {
			return nil, err
		}
		for _, g := range grs.Rows {
			info.Grants = append(info.Grants, Grant{
				Principal: strings.Clone(g[0].Str),
				Privilege: strings.Clone(g[1].Str),
				Source:    lvl.source,
			})
		}
		grs.Release()
	}
	sortGrants(info.Grants)

	// 7: constraints.
	cors, err := a.db.QueryCtx(a.sc, "SELECT name, kind, expr FROM constraints WHERE table_id = ?", sql.Int64(id))
	if err != nil {
		return nil, err
	}
	for _, c := range cors.Rows {
		info.Constraints = append(info.Constraints, Constraint{
			Name: strings.Clone(c[0].Str),
			Kind: strings.Clone(c[1].Str),
			Expr: strings.Clone(c[2].Str),
		})
	}
	cors.Release()

	// 8: lineage.
	lrs, err := a.db.QueryCtx(a.sc, "SELECT upstream_id, kind FROM lineage WHERE target_id = ?", sql.Int64(id))
	if err != nil {
		return nil, err
	}
	for _, l := range lrs.Rows {
		info.Lineage = append(info.Lineage, LineageEdge{UpstreamID: l[0].Int, Kind: strings.Clone(l[1].Str)})
	}
	lrs.Release()
	return info, nil
}

// GetTableKV performs the denormalized read path: one lookup returning
// the serialized materialized object, deserialized by the application
// into an object that shares nothing with the borrowed result.
func (a *App) GetTableKV(id int64) (*TableInfo, error) {
	rs, err := a.db.QueryCtx(a.sc, "SELECT obj FROM tables_denorm WHERE id = ?", sql.Int64(id))
	if err != nil {
		return nil, err
	}
	defer rs.Release()
	if len(rs.Rows) == 0 {
		return nil, fmt.Errorf("catalog: no denormalized table %d", id)
	}
	info := &TableInfo{}
	if err := wire.Unmarshal(rs.Rows[0][0].Blob, info); err != nil {
		return nil, err
	}
	return info, nil
}

// UpdateTableStats is the Object-variant write path: refresh the bulky
// stats payload of one table (the common steady-state write in a
// governance service: statistics and property refreshes).
func (a *App) UpdateTableStats(id int64, stats []byte) error {
	n, err := a.db.ExecCtx(a.sc, "UPDATE tables SET stats = ? WHERE id = ?", sql.Blob(stats), sql.Int64(id))
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("catalog: no table %d", id)
	}
	return nil
}

// UpdateTableKV is the KV-variant write path: re-materialize and replace
// the denormalized object (the write amplification denormalization buys).
func (a *App) UpdateTableKV(info *TableInfo) error {
	n, err := a.db.ExecCtx(a.sc, "UPDATE tables_denorm SET obj = ? WHERE id = ?",
		sql.Blob(wire.Marshal(info)), sql.Int64(info.ID))
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("catalog: no denormalized table %d", info.ID)
	}
	return nil
}

// VersionOfObject returns the storage version of the table's base row:
// the freshness token a consistent cache must check (§5.5).
func (a *App) VersionOfObject(id int64) (uint64, bool, error) {
	return a.db.VersionCtx(a.sc, "tables", sql.Int64(id))
}

// VersionOfKV returns the storage version of the denormalized row.
func (a *App) VersionOfKV(id int64) (uint64, bool, error) {
	return a.db.VersionCtx(a.sc, "tables_denorm", sql.Int64(id))
}

// sortGrants orders grants by source precedence (table, schema, catalog)
// then principal then privilege, giving both read paths a canonical view.
func sortGrants(gs []Grant) {
	rank := map[string]int{"table": 0, "schema": 1, "catalog": 2}
	sort.Slice(gs, func(i, j int) bool {
		if rank[gs[i].Source] != rank[gs[j].Source] {
			return rank[gs[i].Source] < rank[gs[j].Source]
		}
		if gs[i].Principal != gs[j].Principal {
			return gs[i].Principal < gs[j].Principal
		}
		return gs[i].Privilege < gs[j].Privilege
	})
}
