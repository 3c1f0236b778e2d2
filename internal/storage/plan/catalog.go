// Package plan implements the planner and executor of the mini distributed
// database: it binds parsed statements to a schema catalog, chooses access
// paths (primary-key point lookup, secondary-index scan, or full scan),
// and runs them against the kv storage engine.
//
// Together with internal/storage/sql this is the "query processing and
// execution planning" CPU that the paper finds consuming 40–65% of
// database cycles (§5.3) — the component whose repeated exercise makes
// rich-object reads so expensive (§5.4) and whose involvement in version
// checks erodes consistent-cache savings (§5.5).
package plan

import (
	"fmt"
	"sync"

	"cachecost/internal/storage/sql"
)

// Table describes one table's schema.
type Table struct {
	Name    string
	Cols    []sql.ColDef
	PKIndex int               // position of the primary-key column in Cols
	Indexes map[string]string // index name -> column name
	byCol   map[string]int    // column name -> position
	colIdx  map[string]string // column name -> index name
}

// ColIndex returns the position of col in the table, or -1.
func (t *Table) ColIndex(col string) int {
	if i, ok := t.byCol[col]; ok {
		return i
	}
	return -1
}

// IndexOn returns the name of an index on col, if any.
func (t *Table) IndexOn(col string) (string, bool) {
	name, ok := t.colIdx[col]
	return name, ok
}

// PKCol returns the primary-key column name.
func (t *Table) PKCol() string { return t.Cols[t.PKIndex].Name }

// Catalog holds table schemas. It is safe for concurrent use.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Define adds a table from a CREATE TABLE statement.
func (c *Catalog) Define(st *sql.CreateTableStmt) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.tables[st.Table]; exists {
		if st.IfNotExists {
			return c.tables[st.Table], nil
		}
		return nil, fmt.Errorf("plan: table %q already exists", st.Table)
	}
	if len(st.Cols) == 0 {
		return nil, fmt.Errorf("plan: table %q has no columns", st.Table)
	}
	pk := -1
	seen := make(map[string]bool)
	for i, col := range st.Cols {
		if seen[col.Name] {
			return nil, fmt.Errorf("plan: duplicate column %q", col.Name)
		}
		seen[col.Name] = true
		if col.PrimaryKey {
			if pk >= 0 {
				return nil, fmt.Errorf("plan: multiple primary keys in %q", st.Table)
			}
			pk = i
		}
	}
	if pk < 0 {
		return nil, fmt.Errorf("plan: table %q needs a PRIMARY KEY column", st.Table)
	}
	t := &Table{
		Name:    st.Table,
		Cols:    st.Cols,
		PKIndex: pk,
		Indexes: make(map[string]string),
		byCol:   make(map[string]int, len(st.Cols)),
		colIdx:  make(map[string]string),
	}
	for i, col := range st.Cols {
		t.byCol[col.Name] = i
	}
	c.tables[st.Table] = t
	return t, nil
}

// AddIndex registers a secondary index on an existing table.
func (c *Catalog) AddIndex(st *sql.CreateIndexStmt) (*Table, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[st.Table]
	if !ok {
		return nil, false, fmt.Errorf("plan: no such table %q", st.Table)
	}
	if _, exists := t.Indexes[st.Name]; exists {
		if st.IfNotExists {
			return t, false, nil
		}
		return nil, false, fmt.Errorf("plan: index %q already exists", st.Name)
	}
	if t.ColIndex(st.Column) < 0 {
		return nil, false, fmt.Errorf("plan: no column %q in table %q", st.Column, st.Table)
	}
	if st.Column == t.PKCol() {
		return nil, false, fmt.Errorf("plan: column %q is the primary key; no index needed", st.Column)
	}
	if _, exists := t.colIdx[st.Column]; exists {
		return nil, false, fmt.Errorf("plan: column %q already indexed", st.Column)
	}
	t.Indexes[st.Name] = st.Column
	t.colIdx[st.Column] = st.Name
	return t, true, nil
}

// Lookup returns the table named name.
func (c *Catalog) Lookup(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("plan: no such table %q", name)
	}
	return t, nil
}
