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

func TestJoinOrderByJoinedColumn(t *testing.T) {
	db := newTestDB(t)
	seedJoinWorld(t, db)
	rs := mustExec(t, db,
		"SELECT emps.name FROM depts JOIN emps ON depts.id = emps.dept_id ORDER BY emps.salary DESC")
	if len(rs.Rows) != 4 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	want := []string{"ada", "cyd", "bob", "dee"}
	for i, w := range want {
		if rs.Rows[i][0].Str != w {
			t.Fatalf("row %d = %q, want %q (order by non-projected joined column)", i, rs.Rows[i][0].Str, w)
		}
	}
}

func TestJoinOrderByWithLimit(t *testing.T) {
	db := newTestDB(t)
	seedJoinWorld(t, db)
	rs := mustExec(t, db,
		"SELECT emps.name FROM depts JOIN emps ON depts.id = emps.dept_id ORDER BY emps.salary LIMIT 2")
	if len(rs.Rows) != 2 || rs.Rows[0][0].Str != "dee" || rs.Rows[1][0].Str != "bob" {
		t.Fatalf("rows = %v", rs.Rows)
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

func TestJoinOrderByMissingColumn(t *testing.T) {
	db := newTestDB(t)
	seedJoinWorld(t, db)
	if _, err := db.ExecSQL(
		"SELECT name FROM depts JOIN emps ON depts.id = emps.dept_id ORDER BY ghost"); err == nil {
		t.Fatal("order by unknown column should fail")
	}
}

func TestSelectZeroLimit(t *testing.T) {
	db := newTestDB(t)
	seedJoinWorld(t, db)
	rs := mustExec(t, db, "SELECT * FROM emps LIMIT 0")
	if len(rs.Rows) != 0 {
		t.Fatalf("LIMIT 0 returned %d rows", len(rs.Rows))
	}
}

func TestSelectInWithParams(t *testing.T) {
	db := newTestDB(t)
	seedJoinWorld(t, db)
	rs := mustExec(t, db, "SELECT name FROM emps WHERE id IN (?, ?)",
		sql.Int64(10), sql.Int64(13))
	if len(rs.Rows) != 2 {
		t.Fatalf("IN with params = %v", rs.Rows)
	}
}

func TestSelectMatchesReferenceFilter(t *testing.T) {
	// Property: single-table SELECT with random predicates must agree
	// with a plain in-memory filter over the same rows.
	store := kv.NewStore(kv.Config{PageBytes: 2048, CacheBytes: 1 << 20})
	db := NewDB(store)
	mustExec(t, db, "CREATE TABLE nums (id INT PRIMARY KEY, a INT, b INT)")
	type row struct{ id, a, b int64 }
	rng := rand.New(rand.NewSource(11))
	var rows []row
	for i := 0; i < 200; i++ {
		r := row{id: int64(i), a: int64(rng.Intn(20)), b: int64(rng.Intn(20))}
		rows = append(rows, r)
		mustExec(t, db, "INSERT INTO nums (id, a, b) VALUES (?, ?, ?)",
			sql.Int64(r.id), sql.Int64(r.a), sql.Int64(r.b))
	}
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	match := func(v, x int64, op string) bool {
		switch op {
		case "=":
			return v == x
		case "!=":
			return v != x
		case "<":
			return v < x
		case "<=":
			return v <= x
		case ">":
			return v > x
		default:
			return v >= x
		}
	}
	for trial := 0; trial < 50; trial++ {
		opA := ops[rng.Intn(len(ops))]
		opB := ops[rng.Intn(len(ops))]
		xa, xb := int64(rng.Intn(20)), int64(rng.Intn(20))
		src := fmt.Sprintf("SELECT id FROM nums WHERE a %s %d AND b %s %d ORDER BY id", opA, xa, opB, xb)
		rs := mustExec(t, db, src)
		var want []int64
		for _, r := range rows {
			if match(r.a, xa, opA) && match(r.b, xb, opB) {
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

func TestAccessPathString(t *testing.T) {
	if pathPoint.String() != "point" || pathIndex.String() != "index" || pathScan.String() != "scan" {
		t.Fatal("AccessPath.String broken")
	}
	if AccessPath(9).String() != "unknown" {
		t.Fatal("unknown path should stringify")
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
