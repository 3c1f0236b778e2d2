package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"cachecost/internal/rpc"
	"cachecost/internal/storage/sql"
)

// reusingConn delivers each request the way a copying transport does —
// in a buffer of its own — and then reuses that buffer at once: the
// request's bytes are gone the moment the handler returns.
type reusingConn struct{ srv *rpc.Server }

func (c reusingConn) Call(method string, req []byte) ([]byte, error) {
	onWire := append([]byte(nil), req...)
	resp, err := c.srv.Dispatch(method, onWire)
	for i := range onWire {
		onWire[i] = 0xDB
	}
	return resp, err
}

func (c reusingConn) Close() error { return nil }

// TestOwnershipExecOutlivesRequestAndLogIsImmutable pins the storage rows
// of DESIGN.md's "Buffer ownership" table. A write's BLOB parameter is
// decoded in place, on the leader out of the request and on every replica
// out of the proposed command, which lives only until Propose returns.
// So no replica may still point into the request once sql.Exec has
// returned.
func TestOwnershipExecOutlivesRequestAndLogIsImmutable(t *testing.T) {
	n := NewNode(Config{Replicas: 3, BlockCacheBytes: 8 << 20})
	c := NewClient(reusingConn{n.Server()})
	if _, err := c.Exec("CREATE TABLE kvdata (k TEXT PRIMARY KEY, v BLOB)"); err != nil {
		t.Fatal(err)
	}
	blob := func(b byte) []byte { return bytes.Repeat([]byte{b}, 16<<10) }
	for _, k := range []string{"a", "b"} {
		if _, err := c.Exec("INSERT INTO kvdata (k, v) VALUES (?, ?)", sql.Text(k), sql.Blob(blob('0'))); err != nil {
			t.Fatal(err)
		}
	}
	onReplica := func(i int, k string) []byte {
		t.Helper()
		rs, err := n.dbs[i].ExecSQL("SELECT v FROM kvdata WHERE k = ?", sql.Text(k))
		if err != nil || len(rs.Rows) != 1 {
			t.Fatalf("replica %d, key %s: %v, %v", i, k, rs, err)
		}
		return rs.Rows[0][0].Blob
	}

	if _, err := c.Exec("UPDATE kvdata SET v = ? WHERE k = ?", sql.Blob(blob('A')), sql.Text("a")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !bytes.Equal(onReplica(i, "a"), blob('A')) {
			t.Fatalf("replica %d kept bytes of a request buffer that has been reused", i)
		}
	}
	// More traffic, of the same shape, through the same buffers.
	for i := 0; i < 50; i++ {
		if _, err := c.Query("SELECT v FROM kvdata WHERE k = ?", sql.Text("a")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Exec("UPDATE kvdata SET v = ? WHERE k = ?", sql.Blob(blob('B')), sql.Text("b")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if !bytes.Equal(onReplica(i, "a"), blob('A')) || !bytes.Equal(onReplica(i, "b"), blob('B')) {
			t.Fatalf("replica %d does not hold the updates as they were proposed", i)
		}
	}
	// And through the front: the leader serves what was written.
	rs, err := c.Query("SELECT v FROM kvdata WHERE k = ?", sql.Text("a"))
	if err != nil || len(rs.Rows) != 1 || !bytes.Equal(rs.Rows[0][0].Blob, blob('A')) {
		t.Fatalf("leader read after the writes: %v", err)
	}
}

// TestReplicaRowOwnership pins the row a replicated write shares
// (plan.NewReplicas): every follower re-executes the write and encodes
// its rows, but stores the leader's row, so right after each INSERT and
// UPDATE every follower's store lends the leader's backing array, with
// the same bytes. The writes are a seeded mix of one- and two-row
// INSERTs, point UPDATEs and UPDATEs of every row of a group (a scan
// that writes several rows per statement), with flushes between them that
// move the rows out of the memtables into each replica's own pages.
func TestReplicaRowOwnership(t *testing.T) {
	n := NewNode(Config{Replicas: 3, BlockCacheBytes: 1 << 20})
	c := NewClient(reusingConn{n.Server()})
	if _, err := c.Exec("CREATE TABLE kvdata (k TEXT PRIMARY KEY, grp INT, v BLOB)"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	blob := func() sql.Value {
		return sql.Blob(bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, 1+rng.Intn(2048)))
	}
	var keys []sql.Value
	groups := make(map[int64][]sql.Value)
	insert := func() []sql.Value {
		k1, k2 := sql.Text(fmt.Sprintf("k%d", len(keys))), sql.Text(fmt.Sprintf("k%d", len(keys)+1))
		g1, g2 := sql.Int64(rng.Int63n(8)), sql.Int64(rng.Int63n(8))
		var err error
		if rng.Intn(2) == 0 {
			_, err = c.Exec("INSERT INTO kvdata (k, grp, v) VALUES (?, ?, ?)", k1, g1, blob())
			k2 = sql.Value{}
		} else {
			_, err = c.Exec("INSERT INTO kvdata (k, grp, v) VALUES (?, ?, ?), (?, ?, ?)", k1, g1, blob(), k2, g2, blob())
		}
		if err != nil {
			t.Fatal(err)
		}
		keys, groups[g1.Int] = append(keys, k1), append(groups[g1.Int], k1)
		if k2.IsNull() {
			return []sql.Value{k1}
		}
		keys, groups[g2.Int] = append(keys, k2), append(groups[g2.Int], k2)
		return []sql.Value{k1, k2}
	}
	writes := 0
	for i := 0; i < 400; i++ {
		var written []sql.Value
		switch r := rng.Intn(4); {
		case len(keys) < 4 || r == 0:
			written = insert()
		case r == 1:
			g := rng.Int63n(8)
			if n, err := c.Exec("UPDATE kvdata SET v = ? WHERE grp = ?", blob(), sql.Int64(g)); err != nil || n != int64(len(groups[g])) {
				t.Fatalf("group update: %d rows, %v; want %d", n, err, len(groups[g]))
			}
			written = groups[g]
		default:
			k := keys[rng.Intn(len(keys))]
			if n, err := c.Exec("UPDATE kvdata SET v = ? WHERE k = ?", blob(), k); err != nil || n != 1 {
				t.Fatalf("update %v: %d rows, %v", k, n, err)
			}
			written = []sql.Value{k}
		}
		for _, k := range written {
			// The row's key, as plan lays it out: t/<table>/<pk-bytes>.
			rk := k.AppendKeyBytes([]byte("t/kvdata/"))
			lead, _, ok := n.dbs[0].Store().Get(rk)
			if !ok {
				t.Fatalf("write %d: the leader has no row %v", i, k)
			}
			for r := 1; r < len(n.dbs); r++ {
				row, _, ok := n.dbs[r].Store().Get(rk)
				if !ok || !bytes.Equal(row, lead) {
					t.Fatalf("write %d: replica %d's row %v differs from the leader's", i, r, k)
				}
				if unsafe.SliceData(row) != unsafe.SliceData(lead) {
					t.Fatalf("write %d: replica %d keeps a copy of row %v, not the leader's", i, r, k)
				}
			}
			writes++
		}
		if i%25 == 24 {
			for _, db := range n.dbs {
				db.Store().DataBytes() // flushes the memtable
			}
		}
	}
	if err := n.firstApplyErr(); err != nil {
		t.Fatal(err)
	}
	if writes < 400 {
		t.Fatalf("only %d rows written", writes)
	}
}
