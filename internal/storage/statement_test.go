package storage

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cachecost/internal/meter"
	"cachecost/internal/rpc"
	"cachecost/internal/storage/sql"
	"cachecost/internal/trace"
)

// newLoopbackNode is a metered three-replica node holding rows k0..k99
// of 1 KB, flushed into pages, behind a loopback connection.
func newLoopbackNode(t testing.TB) (*Node, *Client) {
	t.Helper()
	n := NewNode(Config{Replicas: 3, BlockCacheBytes: 8 << 20, Meter: meter.NewMeter()})
	if err := n.Bootstrap([]string{"CREATE TABLE kvdata (k TEXT PRIMARY KEY, v BLOB)"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := n.BootstrapExec("INSERT INTO kvdata (k, v) VALUES (?, ?)",
			sql.Text(fmt.Sprintf("k%d", i)), sql.Blob(bytes.Repeat([]byte{'v'}, 1024))); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range n.stores {
		st.DataBytes() // flushes the memtable
	}
	return n, NewClient(rpc.NewLoopback(n.Server(), nil, meter.NewBurner(), rpc.CostModel{}))
}

// TestStatementAllocs pins what one statement allocates end to end over
// a loopback hop, client included: the node decodes each request in
// place, lexes into a pooled token buffer, parses into its statement
// scratch, builds row keys on the stack, decodes the row the store lends
// into its row arena and, on a miss, decodes a page with one copy. A
// read's result is built in the DB's own scratch and encoded before the
// node's next statement; the client decodes it into a pooled set that
// borrows the response until Release. A version check builds its SELECT
// on the stack and parses it into the node's scratch. A replicated UPDATE
// is parsed and executed once, on the leader, which records its put in
// the DB's reused put list and key arena; the followers' stores apply
// that put. What it keeps is one new row, the leader's, which every
// follower's store shares; the rest is the client's statement encode and
// the loopback hop. The replicas' memtable maps do not regrow: the set-up
// flush empties them and keeps their storage.
func TestStatementAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	_, c := newLoopbackNode(t)
	value := sql.Blob(bytes.Repeat([]byte{'w'}, 1024))
	keys := make([]sql.Value, 100)
	for i := range keys {
		keys[i] = sql.Text(fmt.Sprintf("k%d", i))
	}
	var i int
	read := func() {
		i++
		rs, err := c.Query("SELECT v FROM kvdata WHERE k = ?", keys[i%len(keys)])
		if err != nil || len(rs.Rows) != 1 {
			t.Fatalf("read: %v, %v", rs, err)
		}
		rs.Release()
	}
	batch := func() {
		i++
		at := i % (len(keys) - 8)
		resp, err := c.BatchQueryCtx(trace.SpanContext{}, "SELECT v FROM kvdata WHERE k = ?", keys[at:at+8])
		if err != nil || len(resp.Results) != 8 {
			t.Fatalf("batch: %v, %v", resp, err)
		}
		rpc.PutBuffer(resp.Detach())
	}
	version := func() {
		i++
		if _, found, err := c.VersionCtx(trace.SpanContext{}, "kvdata", keys[i%len(keys)]); err != nil || !found {
			t.Fatalf("version: %v, %v", found, err)
		}
	}
	update := func() {
		i++
		if n, err := c.Exec("UPDATE kvdata SET v = ? WHERE k = ?", value, keys[i%len(keys)]); err != nil || n != 1 {
			t.Fatalf("update: %v rows, %v", n, err)
		}
	}
	// Warm the pools, the text table and the block cache.
	read()
	batch()
	version()
	update()
	for _, tc := range []struct {
		name string
		op   func()
		max  float64
	}{
		// Measured 0 / 0 / 0 / 3.
		{"point SELECT", read, 1},     // parent: 9 (17 before garbage-free writes, 39 before the pooled parser)
		{"BatchQuery of 8", batch, 1}, // parent: 76
		{"version check", version, 1}, // parent: 14
		{"UPDATE", update, 3},         // parent: 6, a row per replica and memtable maps regrown after the flush (50 before garbage-free writes)
	} {
		got := testing.AllocsPerRun(200, tc.op)
		t.Logf("%s: %v allocs", tc.name, got)
		if got > tc.max {
			t.Errorf("%s allocates %v, want <= %v", tc.name, got, tc.max)
		}
	}
}

// TestConcurrentStatementsShareNodeScratch drives the node's shared
// per-statement state — the request decoded in place, the text table,
// the leader DB's put list, the pooled parser — from many goroutines at
// once: reads, writes and batches, with more distinct statement texts
// than the text table holds. Each goroutine owns its keys, so every read
// must return exactly what that goroutine last wrote. Run it with -race.
func TestConcurrentStatementsShareNodeScratch(t *testing.T) {
	n, c := newLoopbackNode(t)
	const (
		workers = 8
		ops     = 200
		owned   = 4 // keys per goroutine
	)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			keys := make([]sql.Value, owned)
			latest := make([][]byte, owned)
			for j := range keys {
				keys[j] = sql.Text(fmt.Sprintf("k%d", g*owned+j))
				latest[j] = bytes.Repeat([]byte{'v'}, 1024)
			}
			for i := 0; i < ops; i++ {
				j := i % owned
				pad := strings.Repeat(" ", (g*ops+i)%97) // up to 97 distinct texts per statement
				switch i % 3 {
				case 0:
					v := []byte(fmt.Sprintf("g%d-i%d", g, i))
					if _, err := c.Exec("UPDATE kvdata SET v = ?"+pad+" WHERE k = ?", sql.Blob(v), keys[j]); err != nil {
						t.Error(err)
						return
					}
					latest[j] = v
				case 1:
					rs, err := c.Query("SELECT v FROM kvdata WHERE k = ?"+pad, keys[j])
					if err != nil || len(rs.Rows) != 1 || !bytes.Equal(rs.Rows[0][0].Blob, latest[j]) {
						t.Errorf("worker %d read %v: %v, %v; want %q", g, keys[j], rs, err, latest[j])
						return
					}
				default:
					resp, err := c.BatchQueryCtx(trace.SpanContext{}, "SELECT v FROM kvdata"+pad+" WHERE k = ?", keys)
					if err != nil {
						t.Error(err)
						return
					}
					for k, rs := range resp.Results {
						if len(rs.Rows) != 1 || !bytes.Equal(rs.Rows[0][0].Blob, latest[k]) {
							t.Errorf("worker %d batch read %v: %v; want %q", g, keys[k], rs.Rows, latest[k])
							return
						}
					}
					rpc.PutBuffer(resp.Detach())
				}
			}
		}(g)
	}
	wg.Wait()
	if len(n.req.texts) > maxStmtTexts {
		t.Fatalf("text table holds %d texts, bound %d", len(n.req.texts), maxStmtTexts)
	}
}

// TestConcurrentWritesReuseReplicaScratch drives what a write reuses
// instead of allocating — the node's request and statement scratch, the
// leader DB's row arena, result, put list and key arena, rows the store
// lends — and the TEXT parameters that alias the request, from many
// goroutines at once, while another goroutine flushes every replica's
// memtable under the lent rows. Updates set the unindexed TEXT column v,
// so a written value travels as an aliased TEXT into the row encode;
// inserts add rows whose TEXT tag is indexed, so it travels into the
// index keys too. Every read must return what its goroutine last wrote —
// by key, by index and in a batch — every follower must hold exactly what
// the leader holds, and once the traffic stops no scratch may still hold a
// piece of a statement. The transport overwrites each request the moment
// its handler returns; run the test with -race, and rpc.PutBuffer poisons
// the response buffers it recycles too, so an alias that outlived its
// statement reads as poison.
func TestConcurrentWritesReuseReplicaScratch(t *testing.T) {
	n := NewNode(Config{Replicas: 3, BlockCacheBytes: 1 << 20, Meter: meter.NewMeter()})
	c := NewClient(reusingConn{n.Server()})
	for _, s := range []string{"CREATE TABLE notes (k TEXT PRIMARY KEY, v TEXT, tag TEXT)", "CREATE INDEX notes_tag ON notes (tag)"} {
		if _, err := c.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	const (
		workers = 6
		ops     = 160
		owned   = 3 // keys per goroutine
	)
	keys := make([][]sql.Value, workers)
	latest := make([][]string, workers)
	tagged := make([]map[string]string, workers) // tag -> key, per goroutine
	for g := range keys {
		tagged[g] = make(map[string]string)
		for j := 0; j < owned; j++ {
			k, v, tag := fmt.Sprintf("g%d-k%d", g, j), fmt.Sprintf("g%d-k%d-initial", g, j), fmt.Sprintf("g%d-k%d-tag", g, j)
			if _, err := c.Exec("INSERT INTO notes (k, v, tag) VALUES (?, ?, ?)", sql.Text(k), sql.Text(v), sql.Text(tag)); err != nil {
				t.Fatal(err)
			}
			keys[g] = append(keys[g], sql.Text(k))
			latest[g] = append(latest[g], v)
			tagged[g][tag] = k
		}
	}

	stop := make(chan struct{})
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				for _, st := range n.stores {
					st.DataBytes() // flushes the memtable
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				j := i % owned
				key, want := keys[g][j], latest[g][j]
				switch i % 4 {
				case 0:
					v := fmt.Sprintf("g%d-i%d-%s", g, i, strings.Repeat("x", i%40))
					if n, err := c.Exec("UPDATE notes SET v = ? WHERE k = ?", sql.Text(v), key); err != nil || n != 1 {
						t.Errorf("worker %d update %v: %d rows, %v", g, key, n, err)
						return
					}
					latest[g][j] = v
				case 1:
					rs, err := c.Query("SELECT v FROM notes WHERE k = ?", key)
					if err != nil || len(rs.Rows) != 1 || rs.Rows[0][0].Str != want {
						t.Errorf("worker %d read %v: %v, %v; want %q", g, key, rs, err, want)
						return
					}
				case 2:
					k, tag := fmt.Sprintf("g%d-n%d", g, i), fmt.Sprintf("g%d-i%d-%s", g, i, strings.Repeat("y", i%40))
					if n, err := c.Exec("INSERT INTO notes (k, v, tag) VALUES (?, ?, ?)", sql.Text(k), sql.Text(want), sql.Text(tag)); err != nil || n != 1 {
						t.Errorf("worker %d insert %q: %d rows, %v", g, k, n, err)
						return
					}
					tagged[g][tag] = k
					rs, err := c.Query("SELECT k FROM notes WHERE tag = ?", sql.Text(tag))
					if err != nil || len(rs.Rows) != 1 || rs.Rows[0][0].Str != k {
						t.Errorf("worker %d index read %q: %v, %v; want %q", g, tag, rs, err, k)
						return
					}
				default:
					resp, err := c.BatchQueryCtx(trace.SpanContext{}, "SELECT v FROM notes WHERE k = ?", keys[g])
					if err != nil {
						t.Error(err)
						return
					}
					for k, rs := range resp.Results {
						if len(rs.Rows) != 1 || rs.Rows[0][0].Str != latest[g][k] {
							t.Errorf("worker %d batch read %v: %v; want %q", g, keys[g][k], rs.Rows, latest[g][k])
							return
						}
					}
					rpc.PutBuffer(resp.Detach())
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-flushed

	db := n.LeaderDB()
	for g := range keys {
		for j, key := range keys[g] {
			rs, err := db.ExecSQL("SELECT v FROM notes WHERE k = ?", key)
			if err != nil || len(rs.Rows) != 1 || rs.Rows[0][0].Str != latest[g][j] {
				t.Fatalf("key %v: %v, %v; want %q", key, rs, err, latest[g][j])
			}
		}
	}
	rows := 0
	for g := range tagged {
		for tag, key := range tagged[g] {
			rs, err := db.ExecSQL("SELECT k FROM notes WHERE tag = ?", sql.Text(tag))
			if err != nil || len(rs.Rows) != 1 || rs.Rows[0][0].Str != key {
				t.Fatalf("index entry %q: %v, %v; want %q", tag, rs, err, key)
			}
			rows++
		}
	}
	if rs, err := db.ExecSQL("SELECT k FROM notes"); err != nil || len(rs.Rows) != rows {
		t.Fatalf("the leader holds %v rows (%v), want %d", rs, err, rows)
	}
	requireReplicasMatch(t, n)

	// Quiescent: the request the node decoded into, its statement scratch
	// and the leader DB's row arena are empty to their capacity.
	q := reflect.ValueOf(&n.req).Elem()
	for _, f := range []string{"SQL", "Params", "stmt"} {
		if !zeroToCap(q.FieldByName(f)) {
			t.Errorf("the node's request still holds its %s", f)
		}
	}
	for _, f := range []string{"vals", "rows"} {
		if !zeroToCap(reflect.ValueOf(db).Elem().FieldByName(f)) {
			t.Errorf("the leader's DB still holds rows in its %s", f)
		}
	}
}

// zeroToCap reports whether v is zero throughout, a slice's elements
// checked to its capacity: what scratch holds once its statement is done.
func zeroToCap(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Slice:
		v = v.Slice(0, v.Cap())
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if !zeroToCap(v.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !zeroToCap(v.Field(i)) {
				return false
			}
		}
		return true
	default:
		return v.IsZero()
	}
}
