package catalog

import (
	"fmt"
	"math/rand"

	"cachecost/internal/storage"
	"cachecost/internal/storage/sql"
	"cachecost/internal/wire"
	"cachecost/internal/workload"
)

// Securable-ID spaces: grants can attach to a table, schema or catalog;
// one grants table covers all three levels with disjoint id ranges.
const (
	schemaIDBase  = 1_000_000_000
	catalogIDBase = 2_000_000_000
)

// ddl is the normalized governance schema (the production shape).
var ddl = []string{
	`CREATE TABLE catalogs (id INT PRIMARY KEY, name TEXT, owner_name TEXT)`,
	`CREATE TABLE schemas (id INT PRIMARY KEY, name TEXT, catalog_id INT, owner_name TEXT)`,
	`CREATE TABLE tables (id INT PRIMARY KEY, name TEXT, schema_id INT, owner_name TEXT, props BLOB, stats BLOB)`,
	`CREATE TABLE principals (id INT PRIMARY KEY, name TEXT)`,
	`CREATE TABLE grants (id INT PRIMARY KEY, securable_id INT, principal_id INT, privilege TEXT)`,
	`CREATE INDEX idx_grants_securable ON grants (securable_id)`,
	`CREATE TABLE constraints (id INT PRIMARY KEY, table_id INT, name TEXT, kind TEXT, expr TEXT)`,
	`CREATE INDEX idx_constraints_table ON constraints (table_id)`,
	`CREATE TABLE lineage (id INT PRIMARY KEY, target_id INT, upstream_id INT, kind TEXT)`,
	`CREATE INDEX idx_lineage_target ON lineage (target_id)`,
	`CREATE TABLE tables_denorm (id INT PRIMARY KEY, obj BLOB)`,
}

// SeedConfig controls population size and which variants to materialize.
type SeedConfig struct {
	// Tables is the number of governed tables. Default 1000.
	Tables int
	// Seed drives the deterministic metadata generator. Default 1.
	Seed int64
	// Normalized seeds the production ER schema (Unity Catalog-Object).
	// Denormalized seeds tables_denorm (Unity Catalog-KV). Both default
	// true; disable one to halve the storage footprint of an experiment
	// that only reads the other.
	Normalized, Denormalized bool
	// StatsBytesOverride, when > 0, fixes every table's stats payload
	// size instead of drawing from the Figure 3a distribution.
	StatsBytesOverride int
}

func (c *SeedConfig) applyDefaults() {
	if c.Tables <= 0 {
		c.Tables = 1000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if !c.Normalized && !c.Denormalized {
		c.Normalized = true
		c.Denormalized = true
	}
}

var privileges = []string{"SELECT", "MODIFY", "CREATE", "USAGE", "OWN"}
var constraintKinds = []string{"primary_key", "foreign_key", "check"}
var lineageKinds = []string{"table", "job", "notebook"}

// Seed populates node with a deterministic governance corpus: catalogs,
// schemas, tables, principals, grants at all three levels, constraints
// and lineage — plus, optionally, the denormalized materialized objects.
// Seeding bypasses metering (storage.Node.Bootstrap) so experiments only
// measure steady-state traffic.
func Seed(node *storage.Node, cfg SeedConfig) error {
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	ddl := ddl
	if err := node.Bootstrap(ddl); err != nil {
		return err
	}

	nPrincipals := 100
	nSchemas := cfg.Tables/20 + 1
	nCatalogs := nSchemas/10 + 1

	// Principals.
	batch := newBatcher(node, "principals", []string{"id", "name"})
	for i := 0; i < nPrincipals; i++ {
		if err := batch.add(sql.Int64(int64(i)), sql.Text(principalName(i))); err != nil {
			return err
		}
	}
	if err := batch.flush(); err != nil {
		return err
	}

	grantID := int64(0)
	grantBatch := newBatcher(node, "grants", []string{"id", "securable_id", "principal_id", "privilege"})
	addGrant := func(securable int64, principal int, priv string) error {
		grantID++
		return grantBatch.add(sql.Int64(grantID), sql.Int64(securable),
			sql.Int64(int64(principal)), sql.Text(priv))
	}

	// Catalogs. Grants made at catalog level inherit downward; keep them
	// in memory so denormalized objects can embed the resolved view.
	catGrants := make(map[int64][]Grant)
	catBatch := newBatcher(node, "catalogs", []string{"id", "name", "owner_name"})
	for i := 0; i < nCatalogs; i++ {
		owner := rng.Intn(nPrincipals)
		if err := catBatch.add(sql.Int64(int64(i)), sql.Text(fmt.Sprintf("catalog_%d", i)),
			sql.Text(principalName(owner))); err != nil {
			return err
		}
		for g := 0; g < 1+rng.Intn(2); g++ {
			p := rng.Intn(nPrincipals)
			priv := privileges[rng.Intn(len(privileges))]
			catGrants[int64(i)] = append(catGrants[int64(i)],
				Grant{Principal: principalName(p), Privilege: priv, Source: "catalog"})
			if err := addGrant(catalogIDBase+int64(i), p, priv); err != nil {
				return err
			}
		}
	}
	if err := catBatch.flush(); err != nil {
		return err
	}

	// Schemas.
	schGrants := make(map[int64][]Grant)
	schBatch := newBatcher(node, "schemas", []string{"id", "name", "catalog_id", "owner_name"})
	for i := 0; i < nSchemas; i++ {
		owner := rng.Intn(nPrincipals)
		if err := schBatch.add(sql.Int64(int64(i)), sql.Text(fmt.Sprintf("schema_%d", i)),
			sql.Int64(int64(i%nCatalogs)), sql.Text(principalName(owner))); err != nil {
			return err
		}
		for g := 0; g < 1+rng.Intn(2); g++ {
			p := rng.Intn(nPrincipals)
			priv := privileges[rng.Intn(len(privileges))]
			schGrants[int64(i)] = append(schGrants[int64(i)],
				Grant{Principal: principalName(p), Privilege: priv, Source: "schema"})
			if err := addGrant(schemaIDBase+int64(i), p, priv); err != nil {
				return err
			}
		}
	}
	if err := schBatch.flush(); err != nil {
		return err
	}

	// Tables with constraints, lineage, properties and the stats payload.
	tblBatch := newBatcher(node, "tables", []string{"id", "name", "schema_id", "owner_name", "props", "stats"})
	conBatch := newBatcher(node, "constraints", []string{"id", "table_id", "name", "kind", "expr"})
	linBatch := newBatcher(node, "lineage", []string{"id", "target_id", "upstream_id", "kind"})
	denBatch := newBatcher(node, "tables_denorm", []string{"id", "obj"})
	conID, linID := int64(0), int64(0)

	for i := 0; i < cfg.Tables; i++ {
		id := int64(i)
		schemaID := int64(i % nSchemas)
		catalogID := schemaID % int64(nCatalogs)
		owner := rng.Intn(nPrincipals)

		props := map[string]string{
			"delta.minReaderVersion": "2",
			"owner_team":             fmt.Sprintf("team-%d", rng.Intn(20)),
			"retention_days":         fmt.Sprintf("%d", 7+rng.Intn(90)),
		}
		statsLen := cfg.StatsBytesOverride
		if statsLen <= 0 {
			statsLen = workload.UnityValueSize(i)
		}
		stats := statsPayload(id, statsLen)

		if cfg.Normalized {
			if err := tblBatch.add(
				sql.Int64(id), sql.Text(tableName(i)), sql.Int64(schemaID),
				sql.Text(principalName(owner)), sql.Blob(encodeProps(props)), sql.Blob(stats),
			); err != nil {
				return err
			}
		}

		nGrants := 2 + rng.Intn(4)
		grantRows := make([]Grant, 0, nGrants)
		for g := 0; g < nGrants; g++ {
			p := rng.Intn(nPrincipals)
			priv := privileges[rng.Intn(len(privileges))]
			grantRows = append(grantRows, Grant{Principal: principalName(p), Privilege: priv, Source: "table"})
			if cfg.Normalized {
				if err := addGrant(id, p, priv); err != nil {
					return err
				}
			}
		}

		nCons := rng.Intn(4)
		cons := make([]Constraint, 0, nCons)
		for c := 0; c < nCons; c++ {
			conID++
			k := constraintKinds[rng.Intn(len(constraintKinds))]
			con := Constraint{Name: fmt.Sprintf("con_%d", conID), Kind: k, Expr: "col_" + k}
			cons = append(cons, con)
			if cfg.Normalized {
				if err := conBatch.add(sql.Int64(conID), sql.Int64(id),
					sql.Text(con.Name), sql.Text(con.Kind), sql.Text(con.Expr)); err != nil {
					return err
				}
			}
		}

		nLin := rng.Intn(5)
		lineage := make([]LineageEdge, 0, nLin)
		for l := 0; l < nLin; l++ {
			linID++
			edge := LineageEdge{UpstreamID: int64(rng.Intn(cfg.Tables)), Kind: lineageKinds[rng.Intn(len(lineageKinds))]}
			lineage = append(lineage, edge)
			if cfg.Normalized {
				if err := linBatch.add(sql.Int64(linID), sql.Int64(id),
					sql.Int64(edge.UpstreamID), sql.Text(edge.Kind)); err != nil {
					return err
				}
			}
		}

		if cfg.Denormalized {
			// The materialized object: exactly what GetTableObject would
			// compose, with inheritance resolved at write time — which is
			// why the denormalized variant is hard to keep fresh in
			// production but cheap to read.
			allGrants := make([]Grant, 0, len(grantRows)+4)
			allGrants = append(allGrants, grantRows...)
			allGrants = append(allGrants, schGrants[schemaID]...)
			allGrants = append(allGrants, catGrants[catalogID]...)
			sortGrants(allGrants)
			obj := &TableInfo{
				ID:          id,
				Name:        tableName(i),
				FullName:    fmt.Sprintf("catalog_%d.schema_%d.%s", catalogID, schemaID, tableName(i)),
				Owner:       principalName(owner),
				SchemaName:  fmt.Sprintf("schema_%d", schemaID),
				CatalogName: fmt.Sprintf("catalog_%d", catalogID),
				Grants:      allGrants,
				Constraints: cons,
				Lineage:     lineage,
				Properties:  props,
				Stats:       stats,
			}
			if err := denBatch.add(sql.Int64(id), sql.Blob(wire.Marshal(obj))); err != nil {
				return err
			}
		}
	}
	for _, b := range []*batcher{tblBatch, grantBatch, conBatch, linBatch, denBatch} {
		if err := b.flush(); err != nil {
			return err
		}
	}
	return nil
}

func principalName(i int) string { return fmt.Sprintf("principal_%03d", i) }
func tableName(i int) string     { return fmt.Sprintf("table_%06d", i) }

// statsPayload builds a deterministic pseudo-random payload of n bytes.
func statsPayload(seed int64, n int) []byte {
	out := make([]byte, n)
	x := uint64(seed)*0x9e3779b97f4a7c15 + 1
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = byte(x)
	}
	return out
}

// encodeProps serializes a property map as repeated key/value fields.
func encodeProps(props map[string]string) []byte {
	e := wire.NewEncoder(64)
	keys := make([]string, 0, len(props))
	for k := range props {
		keys = append(keys, k)
	}
	// Sorted for determinism.
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	for _, k := range keys {
		e.String(1, k)
		e.String(2, props[k])
	}
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out
}

// decodeProps reverses encodeProps.
func decodeProps(buf []byte) (map[string]string, error) {
	d := wire.NewDecoder(buf)
	props := make(map[string]string)
	var pendingKey string
	for !d.Done() {
		f, t, err := d.Next()
		if err != nil {
			return nil, err
		}
		switch f {
		case 1:
			if pendingKey, err = d.String(); err != nil {
				return nil, err
			}
		case 2:
			v, err := d.String()
			if err != nil {
				return nil, err
			}
			props[pendingKey] = v
		default:
			if err := d.Skip(t); err != nil {
				return nil, err
			}
		}
	}
	return props, nil
}

// batcher accumulates rows into multi-row INSERT statements executed via
// Bootstrap, keeping seeding fast (one parse per chunk).
type batcher struct {
	node    *storage.Node
	table   string
	cols    []string
	rows    int
	params  []sql.Value
	maxRows int
}

func newBatcher(node *storage.Node, table string, cols []string) *batcher {
	return &batcher{node: node, table: table, cols: cols, maxRows: 50}
}

func (b *batcher) add(vals ...sql.Value) error {
	if len(vals) != len(b.cols) {
		return fmt.Errorf("catalog: batcher %s: %d values for %d columns", b.table, len(vals), len(b.cols))
	}
	b.params = append(b.params, vals...)
	b.rows++
	if b.rows >= b.maxRows {
		return b.flush()
	}
	return nil
}

func (b *batcher) flush() error {
	if b.rows == 0 {
		return nil
	}
	stmt := insertStmt(b.table, b.cols, b.rows)
	err := b.node.BootstrapExec(stmt, b.params...)
	b.rows = 0
	b.params = b.params[:0]
	return err
}

func insertStmt(table string, cols []string, rows int) string {
	colList := ""
	for i, c := range cols {
		if i > 0 {
			colList += ", "
		}
		colList += c
	}
	row := "("
	for i := range cols {
		if i > 0 {
			row += ", "
		}
		row += "?"
	}
	row += ")"
	out := fmt.Sprintf("INSERT INTO %s (%s) VALUES ", table, colList)
	for r := 0; r < rows; r++ {
		if r > 0 {
			out += ", "
		}
		out += row
	}
	return out
}
