package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"cachecost/internal/rpc"
	"cachecost/internal/storage/kv"
	"cachecost/internal/storage/plan"
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

// requireReplicasMatch fails unless every follower's store holds exactly
// the leader's keys, values and versions.
func requireReplicasMatch(t *testing.T, n *Node) {
	t.Helper()
	lead := n.stores[0].Scan(nil, nil)
	for r, st := range n.stores[1:] {
		if got := st.Scan(nil, nil); !reflect.DeepEqual(got, lead) {
			t.Fatalf("replica %d holds %d items that are not the leader's %d", r+1, len(got), len(lead))
		}
	}
}

// requireLeaderRow fails unless every follower's store lends the leader's
// row at key: the same bytes in the same backing array, at the same
// version. It holds from a write until a flush re-encodes the stores'
// pages, each store its own.
func requireLeaderRow(t *testing.T, n *Node, key []byte) {
	t.Helper()
	lead, ver, ok := n.stores[0].Get(key)
	if !ok {
		t.Fatalf("the leader has no row %q", key)
	}
	for r, st := range n.stores[1:] {
		row, v, ok := st.Get(key)
		if !ok || !bytes.Equal(row, lead) || v != ver {
			t.Fatalf("replica %d's row %q (version %d) differs from the leader's (version %d)", r+1, key, v, ver)
		}
		if unsafe.SliceData(row) != unsafe.SliceData(lead) {
			t.Fatalf("replica %d keeps a copy of row %q, not the leader's", r+1, key)
		}
	}
}

// storeStats snapshots every replica's store counters, the leader's first.
func storeStats(n *Node) []kv.Stats {
	stats := make([]kv.Stats, len(n.stores))
	for i, st := range n.stores {
		stats[i] = st.Stats()
	}
	return stats
}

// requirePutsOnly fails unless, since the snapshot was, every follower's
// store applied what the leader's did and nothing else: as many Puts,
// and no Get or Scan.
func requirePutsOnly(t *testing.T, n *Node, was []kv.Stats) {
	t.Helper()
	now := storeStats(n)
	puts := now[0].Puts - was[0].Puts
	for r := 1; r < len(now); r++ {
		if got := now[r].Puts - was[r].Puts; got != puts {
			t.Fatalf("replica %d applied %d puts, the leader %d", r, got, puts)
		}
		if now[r].Gets != was[r].Gets || now[r].Scans != was[r].Scans {
			t.Fatalf("replica %d read while applying a write: %d gets, %d scans", r, now[r].Gets-was[r].Gets, now[r].Scans-was[r].Scans)
		}
	}
}

// TestOwnershipExecOutlivesRequestAndLogIsImmutable pins the storage rows
// of DESIGN.md's "Buffer ownership" table. A write's BLOB parameter is
// decoded in place out of the request, and the leader encodes it into the
// row every replica's store keeps. So no replica may still point into the
// request once sql.Exec has returned.
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
	// holds checks the leader's row of k and that every follower holds
	// what the leader holds.
	holds := func(k string, want []byte) {
		t.Helper()
		rs, err := n.db.ExecSQL("SELECT v FROM kvdata WHERE k = ?", sql.Text(k))
		if err != nil || len(rs.Rows) != 1 || !bytes.Equal(rs.Rows[0][0].Blob, want) {
			t.Fatalf("key %s: the leader kept bytes of a request buffer that has been reused (%v)", k, err)
		}
		requireReplicasMatch(t, n)
	}

	if _, err := c.Exec("UPDATE kvdata SET v = ? WHERE k = ?", sql.Blob(blob('A')), sql.Text("a")); err != nil {
		t.Fatal(err)
	}
	holds("a", blob('A'))
	// More traffic, of the same shape, through the same buffers.
	for i := 0; i < 50; i++ {
		if _, err := c.Query("SELECT v FROM kvdata WHERE k = ?", sql.Text("a")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Exec("UPDATE kvdata SET v = ? WHERE k = ?", sql.Blob(blob('B')), sql.Text("b")); err != nil {
			t.Fatal(err)
		}
	}
	holds("a", blob('A'))
	holds("b", blob('B'))
	// And through the front: the leader serves what was written.
	rs, err := c.Query("SELECT v FROM kvdata WHERE k = ?", sql.Text("a"))
	if err != nil || len(rs.Rows) != 1 || !bytes.Equal(rs.Rows[0][0].Blob, blob('A')) {
		t.Fatalf("leader read after the writes: %v", err)
	}
}

// TestReplicaRowOwnership pins what replication ships: the
// leader's puts, which every follower's store applies as they are, with
// no read of its own. Right after each INSERT and UPDATE every follower
// lends the leader's row for each key written — the same bytes in the
// same backing array, at the same version — and every follower holds
// exactly what the leader holds.
// The writes are a seeded mix of one- and two-row INSERTs, point UPDATEs
// and UPDATEs of every row of a group (a scan that writes several rows
// per statement), with flushes between them that move the rows out of the
// memtables into each replica's own pages.
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
		was := storeStats(n)
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
		requirePutsOnly(t, n, was)
		for _, k := range written {
			// The row's key, as plan lays it out: t/<table>/<pk-bytes>.
			requireLeaderRow(t, n, k.AppendKeyBytes([]byte("t/kvdata/")))
			writes++
		}
		if i%25 == 24 {
			requireReplicasMatch(t, n)
			for _, st := range n.stores {
				st.DataBytes() // flushes the memtable
			}
		}
	}
	requireReplicasMatch(t, n)
	if writes < 400 {
		t.Fatalf("only %d rows written", writes)
	}
}

// TestOwnershipFailedWriteProposesNothing: a write that fails on the
// leader — a duplicate primary key, an unknown table, a two-row INSERT
// whose second row is a duplicate — puts nothing on any replica, the
// leader included, and ships nothing.
func TestOwnershipFailedWriteProposesNothing(t *testing.T) {
	n := NewNode(Config{Replicas: 3, BlockCacheBytes: 1 << 20})
	c := NewClient(reusingConn{n.Server()})
	if _, err := c.Exec("CREATE TABLE kvdata (k TEXT PRIMARY KEY, v BLOB)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("INSERT INTO kvdata (k, v) VALUES ('a', ?)", sql.Blob([]byte("first"))); err != nil {
		t.Fatal(err)
	}
	ships := n.group.Stats().Ships
	state := make([][]kv.Item, len(n.stores))
	for i, st := range n.stores {
		state[i] = st.Scan(nil, nil)
	}
	for _, w := range []struct {
		src    string
		params []sql.Value
		want   string
	}{
		{"INSERT INTO kvdata (k, v) VALUES ('a', ?)", []sql.Value{sql.Blob([]byte("again"))}, plan.ErrDuplicateKey.Error()},
		{"INSERT INTO nosuch (k, v) VALUES ('b', ?)", []sql.Value{sql.Blob([]byte("lost"))}, "no such table"},
		{"INSERT INTO kvdata (k, v) VALUES ('b', ?), ('a', ?)", []sql.Value{sql.Blob([]byte("b")), sql.Blob([]byte("a"))}, plan.ErrDuplicateKey.Error()},
		{"INSERT INTO kvdata (k, v) VALUES ('c', ?), ('c', ?)", []sql.Value{sql.Blob([]byte("c")), sql.Blob([]byte("c"))}, plan.ErrDuplicateKey.Error()},
	} {
		if _, err := c.Exec(w.src, w.params...); err == nil || !strings.Contains(err.Error(), w.want) {
			t.Fatalf("%s: err = %v, want %q", w.src, err, w.want)
		}
		if got := n.group.Stats().Ships; got != ships {
			t.Fatalf("%s: %d ships after the failure, want %d", w.src, got, ships)
		}
		for i, st := range n.stores {
			if got := st.Scan(nil, nil); !reflect.DeepEqual(got, state[i]) {
				t.Fatalf("%s: replica %d changed: %d items, was %d", w.src, i, len(got), len(state[i]))
			}
		}
	}
	// The leader's next statement still runs and replicates.
	if _, err := c.Exec("INSERT INTO kvdata (k, v) VALUES ('b', ?)", sql.Blob([]byte("b"))); err != nil {
		t.Fatal(err)
	}
	requireLeaderRow(t, n, sql.Text("b").AppendKeyBytes([]byte("t/kvdata/")))
	requireReplicasMatch(t, n)
}

// TestOwnershipIndexedInsertReplicatesLeaderRow: DDL runs on the
// leader's catalog only, and what an index adds to a follower is the
// leader's puts. CREATE INDEX over existing rows ships the leader's
// backfilled entries, and an INSERT into the indexed table leaves every
// follower holding the leader's row (its backing array) and the row's
// index entry, each at the leader's version; no follower reads to apply
// either.
func TestOwnershipIndexedInsertReplicatesLeaderRow(t *testing.T) {
	n := NewNode(Config{Replicas: 3, BlockCacheBytes: 1 << 20})
	c := NewClient(reusingConn{n.Server()})
	if _, err := c.Exec("CREATE TABLE notes (k TEXT PRIMARY KEY, v TEXT, tag TEXT)"); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"k1", "k2"} {
		if _, err := c.Exec("INSERT INTO notes (k, v, tag) VALUES (?, ?, ?)", sql.Text(k), sql.Text("v"), sql.Text("t-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	was := storeStats(n)
	if _, err := c.Exec("CREATE INDEX notes_tag ON notes (tag)"); err != nil {
		t.Fatal(err)
	}
	requirePutsOnly(t, n, was)
	was = storeStats(n)
	if _, err := c.Exec("INSERT INTO notes (k, v, tag) VALUES (?, ?, ?)", sql.Text("k3"), sql.Text("v3"), sql.Text("t-k3")); err != nil {
		t.Fatal(err)
	}
	requirePutsOnly(t, n, was)
	requireLeaderRow(t, n, sql.Text("k3").AppendKeyBytes([]byte("t/notes/")))
	index := n.stores[0].Scan([]byte("x/notes/notes_tag/"), []byte("x/notes/notes_tag0"))
	if len(index) != 3 {
		t.Fatalf("the leader holds %d index entries, want 3", len(index))
	}
	for _, en := range index {
		for r, st := range n.stores[1:] {
			if _, ver, ok := st.Get(en.Key); !ok || ver != en.Version {
				t.Fatalf("replica %d: index entry %q at version %d (held %v), the leader's at %d", r+1, en.Key, ver, ok, en.Version)
			}
		}
	}
	requireReplicasMatch(t, n)
	rs, err := c.Query("SELECT k FROM notes WHERE tag = ?", sql.Text("t-k3"))
	if err != nil || len(rs.Rows) != 1 || rs.Rows[0][0].Str != "k3" {
		t.Fatalf("index read: %v, %v", rs, err)
	}
}
