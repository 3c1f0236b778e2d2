package storage

import (
	"bytes"
	"testing"

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
