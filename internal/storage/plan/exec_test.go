package plan

import (
	"errors"
	"reflect"
	"testing"

	"cachecost/internal/storage/kv"
	"cachecost/internal/storage/sql"
)

func newTestDB(t *testing.T) *DB {
	t.Helper()
	store := kv.NewStore(kv.Config{PageBytes: 4096, CacheBytes: 8 << 20})
	return NewDB(store)
}

func mustExec(t *testing.T, db *DB, src string, params ...sql.Value) *ResultSet {
	t.Helper()
	rs, err := db.ExecSQL(src, params...)
	if err != nil {
		t.Fatalf("ExecSQL(%q): %v", src, err)
	}
	return rs
}

func seedUsers(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE users (id INT PRIMARY KEY, name TEXT, age INT, active INT)")
	mustExec(t, db, `INSERT INTO users (id, name, age, active) VALUES
		(1, 'alice', 30, 1), (2, 'bob', 25, 1), (3, 'carol', 35, 0), (4, 'dave', 25, 1)`)
}

func TestCreateInsertSelect(t *testing.T) {
	db := newTestDB(t)
	seedUsers(t, db)
	rs := mustExec(t, db, "SELECT * FROM users WHERE id = 2")
	if len(rs.Rows) != 1 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	if rs.Rows[0][1].Str != "bob" || rs.Rows[0][2].Int != 25 {
		t.Fatalf("row = %v", rs.Rows[0])
	}
	if got := rs.Cols; len(got) != 4 || got[0] != "id" {
		t.Fatalf("cols = %v", got)
	}
	if db.lastPath != pathPoint {
		t.Fatalf("pk equality should use point path, got %v", db.lastPath)
	}
}

func TestSelectProjection(t *testing.T) {
	db := newTestDB(t)
	seedUsers(t, db)
	rs := mustExec(t, db, "SELECT name, age FROM users WHERE id = 1")
	if len(rs.Cols) != 2 || rs.Cols[0] != "name" || rs.Cols[1] != "age" {
		t.Fatalf("cols = %v", rs.Cols)
	}
	if rs.Rows[0][0].Str != "alice" || rs.Rows[0][1].Int != 30 {
		t.Fatalf("row = %v", rs.Rows[0])
	}
}

func TestSelectFilterScan(t *testing.T) {
	db := newTestDB(t)
	seedUsers(t, db)
	rs := mustExec(t, db, "SELECT name FROM users WHERE age = 25 AND active = 1")
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	if db.lastPath != pathScan {
		t.Fatalf("unindexed filter should scan, got %v", db.lastPath)
	}
}

// TestSelectInequalities: a WHERE clause compares with = only. Every
// other comparison is a parse error, and equality filters by value.
func TestSelectInequalities(t *testing.T) {
	db := newTestDB(t)
	seedUsers(t, db)
	for _, src := range []string{
		"SELECT * FROM users WHERE age > 25",
		"SELECT * FROM users WHERE age >= 25",
		"SELECT * FROM users WHERE age < 30",
		"SELECT * FROM users WHERE age <= 30",
		"SELECT * FROM users WHERE age != 25",
		"SELECT * FROM users WHERE age IN (25, 35)",
	} {
		var pe *sql.ParseError
		if _, err := db.ExecSQL(src); !errors.As(err, &pe) {
			t.Errorf("%s: err = %v, want a *sql.ParseError", src, err)
		}
	}
	if got := len(mustExec(t, db, "SELECT * FROM users WHERE age = 25").Rows); got != 2 {
		t.Errorf("age = 25 -> %d rows, want 2", got)
	}
}

// TestSelectOrderLimit: ORDER BY and LIMIT are parse errors; a SELECT
// returns its rows in primary-key order, the order a scan reads.
func TestSelectOrderLimit(t *testing.T) {
	db := newTestDB(t)
	seedUsers(t, db)
	for _, src := range []string{
		"SELECT name FROM users ORDER BY age DESC LIMIT 2",
		"SELECT id FROM users ORDER BY name",
		"SELECT id FROM users LIMIT 1",
	} {
		var pe *sql.ParseError
		if _, err := db.ExecSQL(src); !errors.As(err, &pe) {
			t.Errorf("%s: err = %v, want a *sql.ParseError", src, err)
		}
	}
	rs := mustExec(t, db, "SELECT id FROM users WHERE age = 25")
	if len(rs.Rows) != 2 || rs.Rows[0][0].Int != 2 || rs.Rows[1][0].Int != 4 {
		t.Fatalf("scan order = %v", rs.Rows)
	}
}

func TestSecondaryIndexPath(t *testing.T) {
	db := newTestDB(t)
	seedUsers(t, db)
	mustExec(t, db, "CREATE INDEX idx_age ON users (age)")
	rs := mustExec(t, db, "SELECT name FROM users WHERE age = 25")
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	if db.lastPath != pathIndex {
		t.Fatalf("indexed equality should use index path, got %v", db.lastPath)
	}
}

func TestIndexBackfillCoversExistingRows(t *testing.T) {
	db := newTestDB(t)
	seedUsers(t, db)
	rs := mustExec(t, db, "CREATE INDEX idx_age ON users (age)")
	if rs.RowsAffected != 4 {
		t.Fatalf("backfill affected %d rows, want 4", rs.RowsAffected)
	}
	got := mustExec(t, db, "SELECT id FROM users WHERE age = 35")
	if len(got.Rows) != 1 || got.Rows[0][0].Int != 3 {
		t.Fatalf("index lookup after backfill = %v", got.Rows)
	}
}

func TestIndexMaintainedByWrites(t *testing.T) {
	db := newTestDB(t)
	seedUsers(t, db)
	mustExec(t, db, "CREATE INDEX idx_age ON users (age)")
	mustExec(t, db, "INSERT INTO users (id, name, age, active) VALUES (5, 'eve', 25, 1)")
	if got := len(mustExec(t, db, "SELECT * FROM users WHERE age = 25").Rows); got != 3 {
		t.Fatalf("after insert: %d rows", got)
	}
}

// TestUpdateIndexedColumnRejected: the store is put-only, so it cannot
// move a row's index entry; an UPDATE that sets an indexed column fails,
// as one that sets the primary key does, and writes nothing — not the
// rows, not the index, not the other columns it sets.
func TestUpdateIndexedColumnRejected(t *testing.T) {
	db := newTestDB(t)
	seedUsers(t, db)
	mustExec(t, db, "CREATE INDEX idx_age ON users (age)")
	before := db.Store().Scan(nil, nil)
	puts := db.Store().Stats().Puts
	for _, q := range []string{
		"UPDATE users SET age = 26 WHERE id = 1",
		"UPDATE users SET name = 'zed', age = NULL WHERE age = 25",
	} {
		if _, err := db.ExecSQL(q); err == nil {
			t.Fatalf("%s: accepted", q)
		}
	}
	if got := db.Store().Stats().Puts; got != puts {
		t.Fatalf("rejected updates made %d puts", got-puts)
	}
	if after := db.Store().Scan(nil, nil); !reflect.DeepEqual(after, before) {
		t.Fatalf("rejected updates changed the store: %d items, then %d", len(before), len(after))
	}
	if got := len(mustExec(t, db, "SELECT * FROM users WHERE age = 25").Rows); got != 2 {
		t.Fatalf("index lookup after rejected updates: %d rows, want 2", got)
	}
}

func TestUpdateWhere(t *testing.T) {
	db := newTestDB(t)
	seedUsers(t, db)
	rs := mustExec(t, db, "UPDATE users SET active = 0 WHERE age = 25")
	if rs.RowsAffected != 2 {
		t.Fatalf("affected = %d", rs.RowsAffected)
	}
	got := mustExec(t, db, "SELECT * FROM users WHERE active = 1")
	if len(got.Rows) != 1 {
		t.Fatalf("remaining active = %d", len(got.Rows))
	}
}

func TestUpdatePKRejected(t *testing.T) {
	db := newTestDB(t)
	seedUsers(t, db)
	if _, err := db.ExecSQL("UPDATE users SET id = 9 WHERE id = 1"); err == nil {
		t.Fatal("updating the primary key should be rejected")
	}
}

// TestDeleteWhere: no workload deletes a row, so DELETE is a parse error
// and every row stays.
func TestDeleteWhere(t *testing.T) {
	db := newTestDB(t)
	seedUsers(t, db)
	var pe *sql.ParseError
	if _, err := db.ExecSQL("DELETE FROM users WHERE active = 0"); !errors.As(err, &pe) {
		t.Fatalf("DELETE: err = %v, want a *sql.ParseError", err)
	}
	if got := len(mustExec(t, db, "SELECT * FROM users").Rows); got != 4 {
		t.Fatalf("remaining = %d", got)
	}
}

func TestDuplicatePKRejected(t *testing.T) {
	db := newTestDB(t)
	seedUsers(t, db)
	_, err := db.ExecSQL("INSERT INTO users (id, name) VALUES (1, 'dup')")
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("want ErrDuplicateKey, got %v", err)
	}
}

func TestNullPKRejected(t *testing.T) {
	db := newTestDB(t)
	seedUsers(t, db)
	if _, err := db.ExecSQL("INSERT INTO users (id, name) VALUES (NULL, 'x')"); !errors.Is(err, ErrNullKey) {
		t.Fatalf("want ErrNullKey, got %v", err)
	}
}

func TestMissingColumnsInsertAsNull(t *testing.T) {
	db := newTestDB(t)
	seedUsers(t, db)
	mustExec(t, db, "INSERT INTO users (id) VALUES (9)")
	rs := mustExec(t, db, "SELECT name FROM users WHERE id = 9")
	if !rs.Rows[0][0].IsNull() {
		t.Fatalf("unset column should be NULL, got %v", rs.Rows[0][0])
	}
	// NULL never matches comparisons.
	if got := len(mustExec(t, db, "SELECT * FROM users WHERE name = 'x' AND id = 9").Rows); got != 0 {
		t.Fatal("NULL = 'x' must be false")
	}
}

func TestParamsBinding(t *testing.T) {
	db := newTestDB(t)
	seedUsers(t, db)
	rs := mustExec(t, db, "SELECT name FROM users WHERE id = ?", sql.Int64(3))
	if len(rs.Rows) != 1 || rs.Rows[0][0].Str != "carol" {
		t.Fatalf("rows = %v", rs.Rows)
	}
	if _, err := db.ExecSQL("SELECT * FROM users WHERE id = ?"); err == nil {
		t.Fatal("missing parameter should error")
	}
}

func TestJoinTwoTables(t *testing.T) {
	db := newTestDB(t)
	seedUsers(t, db)
	mustExec(t, db, "CREATE TABLE orders (oid INT PRIMARY KEY, user_id INT, amount INT)")
	mustExec(t, db, "CREATE INDEX idx_orders_user ON orders (user_id)")
	mustExec(t, db, `INSERT INTO orders (oid, user_id, amount) VALUES
		(100, 1, 5), (101, 1, 7), (102, 2, 9), (103, 99, 1)`)

	rs := mustExec(t, db,
		"SELECT users.name, orders.amount FROM users JOIN orders ON users.id = orders.user_id WHERE users.id = 1")
	if len(rs.Rows) != 2 {
		t.Fatalf("join rows = %v", rs.Rows)
	}
	if rs.Cols[0] != "users.name" || rs.Cols[1] != "orders.amount" {
		t.Fatalf("join cols = %v", rs.Cols)
	}
	for _, row := range rs.Rows {
		if row[0].Str != "alice" {
			t.Fatalf("join matched wrong user: %v", row)
		}
	}
}

func TestJoinWithFilterOnJoinTable(t *testing.T) {
	db := newTestDB(t)
	seedUsers(t, db)
	mustExec(t, db, "CREATE TABLE orders (oid INT PRIMARY KEY, user_id INT, amount INT)")
	mustExec(t, db, `INSERT INTO orders (oid, user_id, amount) VALUES
		(100, 1, 5), (101, 1, 7), (102, 2, 9)`)
	rs := mustExec(t, db,
		"SELECT orders.oid FROM users JOIN orders ON users.id = orders.user_id WHERE orders.amount = 7")
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int != 101 {
		t.Fatalf("filtered join rows = %v", rs.Rows)
	}
}

func TestJoinStarQualifiesColumns(t *testing.T) {
	db := newTestDB(t)
	seedUsers(t, db)
	mustExec(t, db, "CREATE TABLE pets (pid INT PRIMARY KEY, owner INT, kind TEXT)")
	mustExec(t, db, "INSERT INTO pets (pid, owner, kind) VALUES (1, 1, 'cat')")
	rs := mustExec(t, db, "SELECT * FROM users JOIN pets ON users.id = pets.owner")
	if len(rs.Rows) != 1 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	if rs.Cols[0] != "users.id" || rs.Cols[len(rs.Cols)-1] != "pets.kind" {
		t.Fatalf("star join cols = %v", rs.Cols)
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE a (id INT PRIMARY KEY, bref INT)")
	mustExec(t, db, "CREATE TABLE b (id INT PRIMARY KEY, cref INT)")
	mustExec(t, db, "CREATE TABLE c (id INT PRIMARY KEY, name TEXT)")
	mustExec(t, db, "INSERT INTO a (id, bref) VALUES (1, 10)")
	mustExec(t, db, "INSERT INTO b (id, cref) VALUES (10, 100)")
	mustExec(t, db, "INSERT INTO c (id, name) VALUES (100, 'leaf')")
	rs := mustExec(t, db,
		"SELECT c.name FROM a JOIN b ON a.bref = b.id JOIN c ON b.cref = c.id WHERE a.id = 1")
	if len(rs.Rows) != 1 || rs.Rows[0][0].Str != "leaf" {
		t.Fatalf("3-way join = %v", rs.Rows)
	}
}

func TestJoinNullDoesNotMatch(t *testing.T) {
	db := newTestDB(t)
	seedUsers(t, db)
	mustExec(t, db, "CREATE TABLE orders (oid INT PRIMARY KEY, user_id INT)")
	mustExec(t, db, "INSERT INTO orders (oid) VALUES (1)") // user_id NULL
	rs := mustExec(t, db, "SELECT * FROM orders JOIN users ON orders.user_id = users.id")
	if len(rs.Rows) != 0 {
		t.Fatalf("NULL join key must not match, got %v", rs.Rows)
	}
}

func TestJoinUnrelatedTablesRejected(t *testing.T) {
	db := newTestDB(t)
	seedUsers(t, db)
	mustExec(t, db, "CREATE TABLE x (id INT PRIMARY KEY)")
	mustExec(t, db, "CREATE TABLE y (id INT PRIMARY KEY)")
	_, err := db.ExecSQL("SELECT * FROM users JOIN x ON y.id = y.id")
	if err == nil {
		t.Fatal("join not referencing the joined table should fail")
	}
}

func TestErrorsOnUnknownNames(t *testing.T) {
	db := newTestDB(t)
	seedUsers(t, db)
	for _, src := range []string{
		"SELECT * FROM missing",
		"SELECT nope FROM users",
		"SELECT * FROM users WHERE users.nope = 1",
		"INSERT INTO users (nope) VALUES (1)",
		"UPDATE users SET nope = 1",
		"CREATE INDEX i ON missing (x)",
		"CREATE INDEX i ON users (nope)",
		"CREATE INDEX i ON users (id)", // pk needs no index
	} {
		if _, err := db.ExecSQL(src); err == nil {
			t.Errorf("%q should fail", src)
		}
	}
}

func TestCreateTableIfNotExistsIdempotent(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY)")
	if _, err := db.ExecSQL("CREATE TABLE t (id INT PRIMARY KEY)"); err == nil {
		t.Fatal("duplicate CREATE TABLE should fail")
	}
	mustExec(t, db, "CREATE TABLE IF NOT EXISTS t (id INT PRIMARY KEY)")
}

func TestTextPrimaryKey(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE kvs (k TEXT PRIMARY KEY, v BLOB)")
	mustExec(t, db, "INSERT INTO kvs (k, v) VALUES (?, ?)", sql.Text("key-1"), sql.Blob([]byte("payload")))
	rs := mustExec(t, db, "SELECT v FROM kvs WHERE k = ?", sql.Text("key-1"))
	if len(rs.Rows) != 1 || string(rs.Rows[0][0].Blob) != "payload" {
		t.Fatalf("blob roundtrip = %v", rs.Rows)
	}
	if db.lastPath != pathPoint {
		t.Fatal("text pk lookup should be a point read")
	}
}

func TestResultSetWireRoundtrip(t *testing.T) {
	db := newTestDB(t)
	seedUsers(t, db)
	rs := mustExec(t, db, "SELECT * FROM users")

	buf := marshalRS(rs)
	var out ResultSet
	if err := unmarshalRS(buf, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Cols) != len(rs.Cols) || len(out.Rows) != len(rs.Rows) {
		t.Fatalf("shape mismatch: %v vs %v", out, rs)
	}
	for i := range rs.Rows {
		for j := range rs.Rows[i] {
			a, b := rs.Rows[i][j], out.Rows[i][j]
			if a.Kind != b.Kind || (!a.IsNull() && !a.Equal(b)) {
				t.Fatalf("cell (%d,%d) mismatch: %v vs %v", i, j, a, b)
			}
		}
	}
}

func TestCatalogTables(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE zeta (id INT PRIMARY KEY)")
	mustExec(t, db, "CREATE TABLE alpha (id INT PRIMARY KEY)")
	for _, name := range []string{"alpha", "zeta"} {
		if _, err := db.Catalog().Lookup(name); err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
	}
	if _, err := db.Catalog().Lookup("beta"); err == nil {
		t.Fatal("Lookup of a table never created succeeded")
	}
}

func marshalRS(rs *ResultSet) []byte {
	return wireMarshal(rs)
}

func unmarshalRS(buf []byte, rs *ResultSet) error {
	return wireUnmarshal(buf, rs)
}

func BenchmarkPointSelect(b *testing.B) {
	store := kv.NewStore(kv.Config{PageBytes: 16 << 10, CacheBytes: 64 << 20})
	db := NewDB(store)
	db.ExecSQL("CREATE TABLE t (id INT PRIMARY KEY, v BLOB)")
	for i := 0; i < 1000; i++ {
		db.ExecSQL("INSERT INTO t (id, v) VALUES (?, ?)", sql.Int64(int64(i)), sql.Blob(make([]byte, 1024)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.ExecSQL("SELECT v FROM t WHERE id = ?", sql.Int64(int64(i%1000))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexSelect(b *testing.B) {
	store := kv.NewStore(kv.Config{PageBytes: 16 << 10, CacheBytes: 64 << 20})
	db := NewDB(store)
	db.ExecSQL("CREATE TABLE t (id INT PRIMARY KEY, grp INT, v BLOB)")
	db.ExecSQL("CREATE INDEX idx_grp ON t (grp)")
	for i := 0; i < 1000; i++ {
		db.ExecSQL("INSERT INTO t (id, grp, v) VALUES (?, ?, ?)",
			sql.Int64(int64(i)), sql.Int64(int64(i%100)), sql.Blob(make([]byte, 256)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.ExecSQL("SELECT id FROM t WHERE grp = ?", sql.Int64(int64(i%100))); err != nil {
			b.Fatal(err)
		}
	}
}
