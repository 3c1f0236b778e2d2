package storage

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"cachecost/internal/meter"
	"cachecost/internal/rpc"
	"cachecost/internal/storage/sql"
	"cachecost/internal/trace"
)

func newTestNode(t *testing.T, m *meter.Meter) (*Node, *Client) {
	t.Helper()
	n := NewNode(Config{
		Replicas:        3,
		BlockCacheBytes: 8 << 20,
		Meter:           m,
	})
	c := NewClient(rpc.NewDirect(n.Server()))
	return n, c
}

func TestExecAndQueryThroughRPC(t *testing.T) {
	_, c := newTestNode(t, nil)
	if _, err := c.Exec("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	affected, err := c.Exec("INSERT INTO t (id, name) VALUES (1, 'a'), (2, 'b')")
	if err != nil {
		t.Fatal(err)
	}
	if affected != 2 {
		t.Fatalf("rows affected = %d, want 2", affected)
	}
	got, err := c.Query("SELECT name FROM t WHERE id = ?", sql.Int64(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 || got.Rows[0][0].Str != "b" {
		t.Fatalf("rows = %v", got.Rows)
	}
}

func TestQueryRejectsWritesAndViceVersa(t *testing.T) {
	_, c := newTestNode(t, nil)
	c.Exec("CREATE TABLE t (id INT PRIMARY KEY)")
	if _, err := c.Query("INSERT INTO t (id) VALUES (1)"); err == nil {
		t.Fatal("Query should reject INSERT")
	}
	if _, err := c.Exec("SELECT * FROM t"); err == nil {
		t.Fatal("Exec should reject SELECT")
	}
}

func TestWritesReplicateToAllReplicas(t *testing.T) {
	n, c := newTestNode(t, nil)
	c.Exec("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	c.Exec("INSERT INTO t (id, v) VALUES (7, 'replicated')")
	rs, err := n.db.ExecSQL("SELECT v FROM t WHERE id = 7")
	if err != nil || len(rs.Rows) != 1 || rs.Rows[0][0].Str != "replicated" {
		t.Fatalf("leader missing write: %v, %v", rs, err)
	}
	key := sql.Int64(7).AppendKeyBytes([]byte("t/t/"))
	for i, st := range n.stores {
		if _, _, ok := st.Get(key); !ok {
			t.Fatalf("replica %d missing write", i)
		}
	}
	requireReplicasMatch(t, n)
}

func TestVersionCheck(t *testing.T) {
	_, c := newTestNode(t, nil)
	c.Exec("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	c.Exec("INSERT INTO t (id, v) VALUES (1, 'a')")
	v1, found, err := c.VersionCtx(trace.SpanContext{}, "t", sql.Int64(1))
	if err != nil || !found {
		t.Fatalf("Version = %v %v %v", v1, found, err)
	}
	c.Exec("UPDATE t SET v = 'b' WHERE id = 1")
	v2, found, err := c.VersionCtx(trace.SpanContext{}, "t", sql.Int64(1))
	if err != nil || !found {
		t.Fatal(err)
	}
	if v2 <= v1 {
		t.Fatalf("version should advance on write: %d -> %d", v1, v2)
	}
	_, found, err = c.VersionCtx(trace.SpanContext{}, "t", sql.Int64(99))
	if err != nil || found {
		t.Fatalf("missing row: found=%v err=%v", found, err)
	}
}

// TestBootstrapLeavesMeterUntouched: a schema and enough bootstrap rows
// to flush every replica's memtable (4 MiB of 16 KB rows) charge no
// meter component — not the storage engine's flushes, page splits or
// modeled disk penalty either.
func TestBootstrapLeavesMeterUntouched(t *testing.T) {
	m := meter.NewMeter()
	n, _ := newTestNode(t, m)
	if err := n.Bootstrap([]string{"CREATE TABLE t (id INT PRIMARY KEY, v BLOB)"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := n.BootstrapExec("INSERT INTO t (id, v) VALUES (?, ?)", sql.Int64(int64(i)), sql.Blob(make([]byte, 16<<10))); err != nil {
			t.Fatal(err)
		}
	}
	for i, st := range n.stores {
		if st := st.Stats(); st.Flushes == 0 {
			t.Fatalf("replica %d never flushed: %+v", i, st)
		}
	}
	for _, c := range m.Snapshot() {
		if c.Busy != 0 || c.Ops != 0 {
			t.Errorf("%s: %v busy over %d ops after bootstrap, want 0 and 0", c.Name, c.Busy, c.Ops)
		}
	}
}

func TestBootstrapBypassesMetering(t *testing.T) {
	m := meter.NewMeter()
	n, c := newTestNode(t, m)
	err := n.Bootstrap([]string{
		"CREATE TABLE t (id INT PRIMARY KEY, v TEXT)",
		"INSERT INTO t (id, v) VALUES (1, 'x')",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Component("storage.sql").Busy(); got != 0 {
		t.Fatalf("bootstrap should not meter, got %v", got)
	}
	// Data visible on every replica and through RPC.
	rs, err := c.Query("SELECT v FROM t WHERE id = 1")
	if err != nil || len(rs.Rows) != 1 {
		t.Fatalf("rows=%v err=%v", rs, err)
	}
	requireReplicasMatch(t, n)
}

func TestMeterBreakdownComponents(t *testing.T) {
	m := meter.NewMeter()
	_, c := newTestNode(t, m)
	c.Exec("CREATE TABLE t (id INT PRIMARY KEY, v BLOB)")
	payload := sql.Blob(make([]byte, 32<<10))
	for i := 0; i < 20; i++ {
		if _, err := c.Exec("INSERT INTO t (id, v) VALUES (?, ?)", sql.Int64(int64(i)), payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := c.Query("SELECT v FROM t WHERE id = ?", sql.Int64(int64(i%20))); err != nil {
			t.Fatal(err)
		}
	}
	for _, comp := range []string{"storage.sql", "storage.exec", "storage.kv", "storage.raft", "storage.rpc"} {
		if m.Component(comp).Busy() <= 0 {
			t.Errorf("component %s should have busy time", comp)
		}
	}
	// Block cache provisioning is metered: 3 replicas x 8MB.
	if got := m.Component("storage.kv").MemBytes(); got != 3*(8<<20) {
		t.Fatalf("kv mem = %d", got)
	}
}

func TestVersionCheckCostsStorageCPU(t *testing.T) {
	// The crux of §5.5: a version check is NOT cheap for the storage
	// node; it pays front-end, lease, and full-row-fetch CPU.
	m := meter.NewMeter()
	n, c := newTestNode(t, m)
	n.Bootstrap([]string{"CREATE TABLE t (id INT PRIMARY KEY, v BLOB)"})
	if err := n.BootstrapExec("INSERT INTO t (id, v) VALUES (?, ?)",
		sql.Int64(1), sql.Blob(make([]byte, 64<<10))); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	for i := 0; i < 50; i++ {
		if _, _, err := c.VersionCtx(trace.SpanContext{}, "t", sql.Int64(1)); err != nil {
			t.Fatal(err)
		}
	}
	sqlBusy := m.Component("storage.sql").Busy()
	execBusy := m.Component("storage.exec").Busy()
	raftBusy := m.Component("storage.raft").Busy()
	if sqlBusy <= 0 || execBusy <= 0 || raftBusy <= 0 {
		t.Fatalf("version checks should cost sql=%v exec=%v raft=%v", sqlBusy, execBusy, raftBusy)
	}
}

func TestErrorsPropagateThroughRPC(t *testing.T) {
	_, c := newTestNode(t, nil)
	if _, err := c.Query("SELECT * FROM missing"); err == nil {
		t.Fatal("unknown table should error")
	}
	if _, err := c.Exec("INSERT INTO missing (id) VALUES (1)"); err == nil {
		t.Fatal("write to unknown table should error")
	}
	if _, err := c.Query("SELEC broken"); err == nil {
		t.Fatal("syntax error should propagate")
	}
	if _, _, err := c.VersionCtx(trace.SpanContext{}, "missing", sql.Int64(1)); err == nil {
		t.Fatal("version check on unknown table should error")
	}
}

func TestExecErrorDoesNotPoisonLaterWrites(t *testing.T) {
	_, c := newTestNode(t, nil)
	c.Exec("CREATE TABLE t (id INT PRIMARY KEY)")
	c.Exec("INSERT INTO t (id) VALUES (1)")
	if _, err := c.Exec("INSERT INTO t (id) VALUES (1)"); err == nil {
		t.Fatal("duplicate pk should error")
	}
	if _, err := c.Exec("INSERT INTO t (id) VALUES (2)"); err != nil {
		t.Fatalf("later write should succeed: %v", err)
	}
}

func TestRichObjectMultiQueryPattern(t *testing.T) {
	// Smoke-test the Unity-Catalog-style access pattern with the catalog's
	// own statements: one logical read touching several tables, one of
	// them through a join.
	_, c := newTestNode(t, nil)
	stmts := []string{
		"CREATE TABLE tables (id INT PRIMARY KEY, name TEXT, schema_id INT, owner_name TEXT, props BLOB, stats BLOB)",
		"CREATE TABLE principals (id INT PRIMARY KEY, name TEXT)",
		"CREATE TABLE grants (id INT PRIMARY KEY, securable_id INT, principal_id INT, privilege TEXT)",
		"CREATE INDEX idx_grants_securable ON grants (securable_id)",
		"INSERT INTO tables (id, name, schema_id, owner_name) VALUES (1, 'events', 7, 'ops')",
	}
	for _, s := range stmts {
		if _, err := c.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Exec("INSERT INTO principals (id, name) VALUES (?, ?)", sql.Int64(int64(100+i)), sql.Text(fmt.Sprintf("user%d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Exec("INSERT INTO grants (id, securable_id, principal_id, privilege) VALUES (?, 1, ?, 'SELECT')",
			sql.Int64(int64(i)), sql.Int64(int64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := c.Query("SELECT name, schema_id, owner_name, props, stats FROM tables WHERE id = ?", sql.Int64(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Str != "events" || !rs.Rows[0][3].IsNull() {
		t.Fatalf("table row = %v", rs.Rows)
	}
	rs, err = c.Query(
		"SELECT principals.name, grants.privilege FROM grants JOIN principals ON grants.principal_id = principals.id WHERE grants.securable_id = ?",
		sql.Int64(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 5 {
		t.Fatalf("join rows = %d", len(rs.Rows))
	}
	for i, row := range rs.Rows {
		if row[0].Str != fmt.Sprintf("user%d", i) || row[1].Str != "SELECT" {
			t.Fatalf("row %d = %v", i, row)
		}
	}
}

func BenchmarkStoragePointRead1KB(b *testing.B) {
	n := NewNode(Config{Replicas: 3, BlockCacheBytes: 64 << 20})
	c := NewClient(rpc.NewDirect(n.Server()))
	n.Bootstrap([]string{"CREATE TABLE t (id INT PRIMARY KEY, v BLOB)"})
	for i := 0; i < 100; i++ {
		n.BootstrapExec("INSERT INTO t (id, v) VALUES (?, ?)", sql.Int64(int64(i)), sql.Blob(make([]byte, 1024)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query("SELECT v FROM t WHERE id = ?", sql.Int64(int64(i%100))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStorageReplicatedWrite1KB(b *testing.B) {
	n := NewNode(Config{Replicas: 3, BlockCacheBytes: 64 << 20})
	c := NewClient(rpc.NewDirect(n.Server()))
	n.Bootstrap([]string{"CREATE TABLE t (id INT PRIMARY KEY, v BLOB)"})
	payload := sql.Blob(make([]byte, 1024))
	for i := 0; i < 100; i++ {
		n.BootstrapExec("INSERT INTO t (id, v) VALUES (?, ?)", sql.Int64(int64(i)), payload)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Exec("UPDATE t SET v = ? WHERE id = ?", payload, sql.Int64(int64(i%100))); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReplicationRetainsNoCommands: a proposed command lives only until
// Propose returns, so a long stream of large writes over a fixed key set
// grows the live heap by nothing like its volume (80 MB here).
func TestReplicationRetainsNoCommands(t *testing.T) {
	n, c := newTestNode(t, nil)
	if _, err := c.Exec("CREATE TABLE kvdata (k TEXT PRIMARY KEY, v BLOB)"); err != nil {
		t.Fatal(err)
	}
	const keys, writes = 64, 5000
	val := bytes.Repeat([]byte{'v'}, 16<<10)
	for k := 0; k < keys; k++ {
		if _, err := c.Exec("INSERT INTO kvdata (k, v) VALUES (?, ?)", sql.Text(fmt.Sprint("key", k)), sql.Blob(val)); err != nil {
			t.Fatal(err)
		}
	}
	liveHeap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := liveHeap()
	for i := 0; i < writes; i++ {
		val[0] = byte(i)
		if _, err := c.Exec("UPDATE kvdata SET v = ? WHERE k = ?", sql.Blob(val), sql.Text(fmt.Sprint("key", i%keys))); err != nil {
			t.Fatal(err)
		}
	}
	growth := liveHeap() - before
	runtime.KeepAlive(n)
	if growth >= 4<<20 {
		t.Fatalf("live heap grew %d bytes over %d writes: something retains replicated commands", growth, writes)
	}
}
