package plan

import (
	"bytes"
	"errors"
	"fmt"

	"cachecost/internal/storage/kv"
	"cachecost/internal/storage/raft"
	"cachecost/internal/storage/sql"
)

// AccessPath is the access method the planner chose for a table.
type AccessPath int

// Access paths, cheapest first.
const (
	pathPoint AccessPath = iota // primary-key point lookup
	pathIndex                   // secondary-index equality scan
	pathScan                    // full table scan
)

// Common execution errors.
var (
	ErrDuplicateKey = errors.New("plan: duplicate primary key")
	ErrNullKey      = errors.New("plan: primary key must not be NULL")
)

// DB binds a catalog to a kv store and executes statements, one at a
// time.
type DB struct {
	cat   *Catalog
	store *kv.Store

	// lastPath records the access path of the most recent base-table
	// scan, for tests and EXPLAIN-style diagnostics.
	lastPath AccessPath

	// A statement's scratch, reused statement after statement: vals is
	// the arena its rows are decoded and built in, rows the rows its
	// base-table scan matched. Exec empties both when the statement
	// returns (release).
	vals []sql.Value
	rows [][]sql.Value

	// A statement's result, the DB's own until its next statement (begin
	// empties it): res, or each for QueryEach, a write's row count (wrote)
	// or a SELECT's columns and rows, built in outCols, outRows and
	// outVals. A SELECT's values alias rows the store lent, which it never
	// rewrites.
	res     ResultSet
	each    []ResultSet
	outCols []string
	outRows [][]sql.Value
	outVals []sql.Value

	// A statement's writes, in order: puts holds each row and index entry
	// it writes, its key copied into keys. Exec applies them to the store
	// once the statement has succeeded, and they stay the DB's own until
	// its next statement (Puts).
	puts []raft.Command
	keys []byte
}

// maxKeptVals bounds the row arena a DB keeps between statements: a large
// scan's arena is dropped rather than held for point statements.
const maxKeptVals = 1024

// rowVals returns n NULL values from the statement's arena. A slice it
// returned earlier stays valid when the arena grows: it keeps the old
// array.
func (db *DB) rowVals(n int) []sql.Value {
	at := len(db.vals)
	db.vals = append(db.vals, make([]sql.Value, n)...)
	return db.vals[at : at+n : at+n]
}

// release ends a statement: the arena and the matched rows are zeroed,
// so no row of it stays reachable, and kept unless they grew too large.
func (db *DB) release() {
	clear(db.vals)
	clear(db.rows)
	db.vals, db.rows = db.vals[:0], db.rows[:0]
	if cap(db.vals) > maxKeptVals {
		db.vals, db.rows = nil, nil
	}
}

// begin starts a statement: the last one's result and writes are zeroed,
// and their arrays kept unless they grew too large.
func (db *DB) begin() {
	clear(db.each)
	clear(db.outCols)
	clear(db.outRows)
	clear(db.outVals)
	db.each, db.outCols, db.outRows, db.outVals = db.each[:0], db.outCols[:0], db.outRows[:0], db.outVals[:0]
	if cap(db.outVals) > maxKeptVals || cap(db.outRows) > maxKeptVals {
		db.each, db.outCols, db.outRows, db.outVals = nil, nil, nil, nil
	}
	db.res = ResultSet{}
	clear(db.puts)
	db.puts, db.keys = db.puts[:0], db.keys[:0]
	if cap(db.puts) > maxKeptVals {
		db.puts, db.keys = nil, nil
	}
}

// wrote returns a write's result: the DB's own ResultSet, valid until
// its next statement.
func (db *DB) wrote(n int64) *ResultSet {
	db.res = ResultSet{RowsAffected: n}
	return &db.res
}

// NewDB returns a DB over store with an empty catalog.
func NewDB(store *kv.Store) *DB {
	return &DB{cat: NewCatalog(), store: store}
}

// put records a write of value at key, the key copied into the
// statement's arena, for Exec to apply once the statement has succeeded.
// The store keeps value itself (kv.Store.Put), as does every follower's.
func (db *DB) put(key, value []byte) {
	at := len(db.keys)
	db.keys = append(db.keys, key...)
	db.puts = append(db.puts, raft.Command{Op: raft.OpPut, Key: db.keys[at:len(db.keys):len(db.keys)], Value: value})
}

// putting reports whether the statement has already recorded a write at
// key.
func (db *DB) putting(key []byte) bool {
	for _, p := range db.puts {
		if bytes.Equal(p.Key, key) {
			return true
		}
	}
	return false
}

// Puts returns the writes of the DB's last statement, in the order it
// applied them: what replication ships to the followers. They are the
// DB's own until its next statement; a failed statement has none.
func (db *DB) Puts() []raft.Command { return db.puts }

// Catalog returns the schema catalog.
func (db *DB) Catalog() *Catalog { return db.cat }

// Store returns the underlying kv store.
func (db *DB) Store() *kv.Store { return db.store }

// VersionOf returns the storage version of table's row with primary key
// pk (kv.Store.VersionOf), its key built on the stack.
func (db *DB) VersionOf(table string, pk sql.Value) (uint64, bool) {
	var kb [64]byte
	return db.store.VersionOf(rowKey(kb[:0], table, pk))
}

// ExecSQL parses and executes src with the given parameters.
func (db *DB) ExecSQL(src string, params ...sql.Value) (*ResultSet, error) {
	stmt, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	return db.Exec(stmt, params)
}

// Exec executes a parsed statement with bound parameters. The ResultSet
// is the DB's own, valid until the DB's next statement: a caller that
// keeps any of it past that copies it. A SELECT's TEXT and BLOB values
// alias rows the store lent, which it never rewrites. A write applies
// all its puts or, when it fails, none.
func (db *DB) Exec(stmt sql.Stmt, params []sql.Value) (*ResultSet, error) {
	db.begin()
	defer db.release()
	rs, err := db.exec(stmt, params)
	if err != nil {
		clear(db.puts)
		db.puts = db.puts[:0]
		return nil, err
	}
	for _, p := range db.puts {
		db.store.Put(p.Key, p.Value)
	}
	return rs, nil
}

func (db *DB) exec(stmt sql.Stmt, params []sql.Value) (*ResultSet, error) {
	switch st := stmt.(type) {
	case *sql.CreateTableStmt:
		_, err := db.cat.Define(st)
		return db.wrote(0), err
	case *sql.CreateIndexStmt:
		return db.execCreateIndex(st)
	case *sql.InsertStmt:
		return db.execInsert(st, params)
	case *sql.UpdateStmt:
		return db.execUpdate(st, params)
	case *sql.SelectStmt:
		return db.execSelect(st, params)
	default:
		return nil, fmt.Errorf("plan: unsupported statement %T", stmt)
	}
}

// QueryEach runs the SELECT st once per parameter, each bound as its
// only parameter — a batch of point reads through one parsed statement.
// Result i answers params[i]; the results are the DB's own, like Exec's,
// valid until the DB's next statement.
func (db *DB) QueryEach(st *sql.SelectStmt, params []sql.Value) ([]ResultSet, error) {
	db.begin()
	var param [1]sql.Value
	for _, p := range params {
		param[0] = p
		rs, err := db.execSelect(st, param[:])
		db.release()
		if err != nil {
			return nil, err
		}
		db.each = append(db.each, *rs)
	}
	return db.each, nil
}

func (db *DB) execCreateIndex(st *sql.CreateIndexStmt) (*ResultSet, error) {
	t, created, err := db.cat.AddIndex(st)
	if err != nil {
		return nil, err
	}
	if !created {
		return db.wrote(0), nil
	}
	// Backfill the index from existing rows.
	col := t.ColIndex(st.Column)
	prefix := tablePrefix(t.Name)
	items := db.store.Scan(prefix, prefixEnd(prefix))
	var n int64
	vals := make([]sql.Value, len(t.Cols))
	for _, it := range items {
		clear(vals)
		if err := decodeRow(vals, it.Value); err != nil {
			return nil, err
		}
		if vals[col].IsNull() {
			continue
		}
		db.put(indexKey(t.Name, st.Name, vals[col], vals[t.PKIndex]), nil)
		n++
	}
	return db.wrote(n), nil
}

// evalExpr resolves a literal or parameter.
func evalExpr(x sql.Expr, params []sql.Value) (sql.Value, error) {
	if !x.IsParam {
		return x.Value, nil
	}
	if x.Param < 1 || x.Param > len(params) {
		return sql.Value{}, fmt.Errorf("plan: statement has parameter $%d but %d values were bound", x.Param, len(params))
	}
	return params[x.Param-1], nil
}

func (db *DB) execInsert(st *sql.InsertStmt, params []sql.Value) (*ResultSet, error) {
	t, err := db.cat.Lookup(st.Table)
	if err != nil {
		return nil, err
	}
	colPos := make([]int, len(st.Cols))
	for i, c := range st.Cols {
		p := t.ColIndex(c)
		if p < 0 {
			return nil, fmt.Errorf("plan: no column %q in table %q", c, st.Table)
		}
		colPos[i] = p
	}
	var n int64
	for _, row := range st.Rows {
		vals := db.rowVals(len(t.Cols))
		for i, x := range row {
			v, err := evalExpr(x, params)
			if err != nil {
				return nil, err
			}
			vals[colPos[i]] = v
		}
		pk := vals[t.PKIndex]
		if pk.IsNull() {
			return nil, ErrNullKey
		}
		var kb [64]byte
		key := rowKey(kb[:0], t.Name, pk)
		if _, _, exists := db.store.Get(key); exists || db.putting(key) {
			return nil, fmt.Errorf("%w: %s in %q", ErrDuplicateKey, pk, t.Name)
		}
		db.put(key, encodeRow(vals))
		for idxName, idxCol := range t.Indexes {
			cv := vals[t.ColIndex(idxCol)]
			if !cv.IsNull() {
				db.put(indexKey(t.Name, idxName, cv, pk), nil)
			}
		}
		n++
	}
	return db.wrote(n), nil
}

func (db *DB) execUpdate(st *sql.UpdateStmt, params []sql.Value) (*ResultSet, error) {
	t, err := db.cat.Lookup(st.Table)
	if err != nil {
		return nil, err
	}
	rows, err := db.scanTable(db.rows[:0], t, st.Where, params)
	db.rows = rows
	if err != nil {
		return nil, err
	}
	var posBuf [8]int
	setPos := posBuf[:0]
	for _, a := range st.Set {
		p := t.ColIndex(a.Column)
		if p < 0 {
			return nil, fmt.Errorf("plan: no column %q in table %q", a.Column, st.Table)
		}
		if p == t.PKIndex {
			return nil, fmt.Errorf("plan: updating the primary key of %q is not supported", st.Table)
		}
		if _, ok := t.IndexOn(a.Column); ok {
			return nil, fmt.Errorf("plan: updating indexed column %q of %q is not supported", a.Column, st.Table)
		}
		setPos = append(setPos, p)
	}
	var n int64
	for _, vals := range rows {
		pk := vals[t.PKIndex]
		newVals := db.rowVals(len(vals))
		copy(newVals, vals)
		for i, a := range st.Set {
			v, err := evalExpr(a.X, params)
			if err != nil {
				return nil, err
			}
			newVals[setPos[i]] = v
		}
		var kb [64]byte
		db.put(rowKey(kb[:0], t.Name, pk), encodeRow(newVals))
		n++
	}
	return db.wrote(n), nil
}

// predFor reports whether pred applies to table t (unqualified or
// qualified with t's name) and resolves its column position.
func predFor(t *Table, pred sql.Pred) (int, bool, error) {
	if pred.Col.Table != "" && pred.Col.Table != t.Name {
		return 0, false, nil
	}
	ci := t.ColIndex(pred.Col.Column)
	if ci < 0 {
		if pred.Col.Table == t.Name {
			return 0, false, fmt.Errorf("plan: no column %q in table %q", pred.Col.Column, t.Name)
		}
		return 0, false, nil // unqualified name may belong to another table
	}
	return ci, true, nil
}

// scanTable appends to dst the rows of t matching the applicable
// predicates, choosing the cheapest access path. The rows live in the
// statement's arena (rowVals); a point lookup decodes the row the store
// lends, so its values alias the stored row.
func (db *DB) scanTable(dst [][]sql.Value, t *Table, preds []sql.Pred, params []sql.Value) ([][]sql.Value, error) {
	// Resolve applicable predicates. NULL equals nothing, so a predicate
	// against NULL matches no row.
	type boundPred struct {
		pred sql.Pred
		col  int
	}
	var boundBuf [4]boundPred
	bound := boundBuf[:0]
	for _, p := range preds {
		ci, ok, err := predFor(t, p)
		if err != nil {
			return dst, err
		}
		if ok {
			bound = append(bound, boundPred{pred: p, col: ci})
		}
	}

	// keep decodes buf into the arena and appends it to dst if it passes
	// the predicates; a row that does not gives its arena slot back,
	// zeroed, so release leaves nothing of it past the arena's length.
	keep := func(buf []byte) error {
		vals := db.rowVals(len(t.Cols))
		if err := decodeRow(vals, buf); err != nil {
			return err
		}
		for _, bp := range bound {
			rv, err := evalExpr(bp.pred.X, params)
			if err != nil {
				return err
			}
			if !vals[bp.col].Equal(rv) {
				clear(vals)
				db.vals = db.vals[:len(db.vals)-len(vals)]
				return nil
			}
		}
		dst = append(dst, vals)
		return nil
	}

	// Path 1: primary-key equality -> point lookup.
	for _, bp := range bound {
		if bp.col == t.PKIndex {
			db.lastPath = pathPoint
			pk, err := evalExpr(bp.pred.X, params)
			if err != nil {
				return dst, err
			}
			var kb [64]byte
			if buf, _, ok := db.store.Get(rowKey(kb[:0], t.Name, pk)); ok {
				err = keep(buf)
			}
			return dst, err
		}
	}

	// Path 2: indexed-column equality -> index scan + point lookups.
	for _, bp := range bound {
		idxName, ok := t.IndexOn(t.Cols[bp.col].Name)
		if !ok {
			continue
		}
		db.lastPath = pathIndex
		v, err := evalExpr(bp.pred.X, params)
		if err != nil {
			return dst, err
		}
		prefix := indexValPrefix(t.Name, idxName, v)
		entries := db.store.Scan(prefix, prefixEnd(prefix))
		for _, en := range entries {
			rk := append(tablePrefix(t.Name), en.Key[len(prefix):]...)
			buf, _, ok := db.store.Get(rk)
			if !ok {
				// A row is put before its index entries and never removed.
				return dst, fmt.Errorf("plan: index %q entry %q has no row", idxName, en.Key)
			}
			if err := keep(buf); err != nil {
				return dst, err
			}
		}
		return dst, nil
	}

	// Path 3: full scan.
	db.lastPath = pathScan
	prefix := tablePrefix(t.Name)
	items := db.store.Scan(prefix, prefixEnd(prefix))
	for _, it := range items {
		if err := keep(it.Value); err != nil {
			return dst, err
		}
	}
	return dst, nil
}
