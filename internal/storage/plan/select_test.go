package plan

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cachecost/internal/storage/kv"
	"cachecost/internal/storage/sql"
)

func seedJoinWorld(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE depts (id INT PRIMARY KEY, name TEXT)")
	mustExec(t, db, "CREATE TABLE emps (id INT PRIMARY KEY, dept_id INT, name TEXT, salary INT)")
	mustExec(t, db, "CREATE INDEX idx_emps_dept ON emps (dept_id)")
	mustExec(t, db, "INSERT INTO depts (id, name) VALUES (1, 'eng'), (2, 'sales')")
	mustExec(t, db, `INSERT INTO emps (id, dept_id, name, salary) VALUES
		(10, 1, 'ada', 300), (11, 1, 'bob', 200), (12, 2, 'cyd', 250), (13, 2, 'dee', 100)`)
}

// TestJoinOrderByJoinedColumn: a joined table's column that is not
// projected still filters the joined rows, which come in FROM-table scan
// order, then index order.
func TestJoinOrderByJoinedColumn(t *testing.T) {
	db := newTestDB(t)
	seedJoinWorld(t, db)
	rs := mustExec(t, db, "SELECT emps.name FROM depts JOIN emps ON depts.id = emps.dept_id")
	want := []string{"ada", "bob", "cyd", "dee"}
	if len(rs.Rows) != len(want) {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	for i, w := range want {
		if rs.Rows[i][0].Str != w {
			t.Fatalf("row %d = %q, want %q", i, rs.Rows[i][0].Str, w)
		}
	}
	rs = mustExec(t, db,
		"SELECT emps.name FROM depts JOIN emps ON depts.id = emps.dept_id WHERE emps.salary = 250")
	if len(rs.Rows) != 1 || rs.Rows[0][0].Str != "cyd" {
		t.Fatalf("filtered on a non-projected joined column: %v", rs.Rows)
	}
}

func TestJoinUnqualifiedOnColumns(t *testing.T) {
	db := newTestDB(t)
	seedJoinWorld(t, db)
	// dept_id exists only in emps, id resolves to the bound table first.
	rs := mustExec(t, db, "SELECT name FROM depts JOIN emps ON id = dept_id WHERE depts.id = 1")
	if len(rs.Rows) != 2 {
		t.Fatalf("unqualified join rows = %v", rs.Rows)
	}
}

func TestJoinProjectionErrors(t *testing.T) {
	db := newTestDB(t)
	seedJoinWorld(t, db)
	for _, src := range []string{
		"SELECT ghosts.name FROM depts JOIN emps ON depts.id = emps.dept_id",
		"SELECT depts.ghost FROM depts JOIN emps ON depts.id = emps.dept_id",
		"SELECT nothere FROM depts JOIN emps ON depts.id = emps.dept_id",
		"SELECT name FROM depts JOIN emps ON depts.ghost = emps.dept_id",
		"SELECT name FROM depts JOIN depts ON depts.id = depts.id",
	} {
		if _, err := db.ExecSQL(src); err == nil {
			t.Errorf("%q should fail", src)
		}
	}
}

// TestJoinOrderByMissingColumn: a filter naming an unknown column of a
// joined table fails, like a projection of one.
func TestJoinOrderByMissingColumn(t *testing.T) {
	db := newTestDB(t)
	seedJoinWorld(t, db)
	if _, err := db.ExecSQL(
		"SELECT name FROM depts JOIN emps ON depts.id = emps.dept_id WHERE emps.ghost = 1"); err == nil {
		t.Fatal("filter on unknown column should fail")
	}
}

// TestSelectInWithParams: parameters bind across several equality
// conjuncts, left to right.
func TestSelectInWithParams(t *testing.T) {
	db := newTestDB(t)
	seedJoinWorld(t, db)
	rs := mustExec(t, db, "SELECT name FROM emps WHERE dept_id = ? AND salary = ?",
		sql.Int64(2), sql.Int64(100))
	if len(rs.Rows) != 1 || rs.Rows[0][0].Str != "dee" {
		t.Fatalf("params = %v", rs.Rows)
	}
}

func TestSelectMatchesReferenceFilter(t *testing.T) {
	// Property: single-table SELECT with random equality predicates must
	// agree with a plain in-memory filter over the same rows.
	store := kv.NewStore(kv.Config{PageBytes: 2048, CacheBytes: 1 << 20})
	db := NewDB(store)
	mustExec(t, db, "CREATE TABLE nums (id INT PRIMARY KEY, a INT, b INT)")
	type row struct{ id, a, b int64 }
	rng := rand.New(rand.NewSource(11))
	var rows []row
	for i := 0; i < 200; i++ {
		r := row{id: int64(i), a: int64(rng.Intn(4)), b: int64(rng.Intn(4))}
		rows = append(rows, r)
		mustExec(t, db, "INSERT INTO nums (id, a, b) VALUES (?, ?, ?)",
			sql.Int64(r.id), sql.Int64(r.a), sql.Int64(r.b))
	}
	for trial := 0; trial < 50; trial++ {
		xa, xb := int64(rng.Intn(5)), int64(rng.Intn(5))
		src := fmt.Sprintf("SELECT id FROM nums WHERE a = %d AND b = %d", xa, xb)
		rs := mustExec(t, db, src)
		var want []int64
		for _, r := range rows {
			if r.a == xa && r.b == xb {
				want = append(want, r.id)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(rs.Rows) != len(want) {
			t.Fatalf("%s: %d rows, want %d", src, len(rs.Rows), len(want))
		}
		for i := range want {
			if rs.Rows[i][0].Int != want[i] {
				t.Fatalf("%s: row %d = %d, want %d", src, i, rs.Rows[i][0].Int, want[i])
			}
		}
	}
}

func TestIndexPathUsedInsideJoinProbe(t *testing.T) {
	db := newTestDB(t)
	seedJoinWorld(t, db)
	mustExec(t, db, "SELECT emps.name FROM depts JOIN emps ON depts.id = emps.dept_id WHERE depts.id = 1")
	// The last probe into emps goes through the secondary index.
	if db.lastPath != pathIndex {
		t.Fatalf("join probe should use the index, got %v", db.lastPath)
	}
}
