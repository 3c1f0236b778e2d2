package storage

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

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
	for _, db := range n.dbs {
		db.Store().Flush()
	}
	return n, NewClient(rpc.NewLoopback(n.Server(), nil, meter.NewBurner(), rpc.CostModel{}))
}

// TestStatementAllocs pins what one statement allocates end to end over
// a loopback hop, client included: the node decodes each request in
// place, lexes into a pooled token buffer, builds row keys on the stack
// and decodes a page with one copy. A replicated UPDATE is parsed four
// times: once by the front end, then by each of the three replicas'
// appliers.
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
		if rs, err := c.Query("SELECT v FROM kvdata WHERE k = ?", keys[i%len(keys)]); err != nil || len(rs.Rows) != 1 {
			t.Fatalf("read: %v, %v", rs, err)
		}
	}
	update := func() {
		i++
		if rs, err := c.Exec("UPDATE kvdata SET v = ? WHERE k = ?", value, keys[i%len(keys)]); err != nil || rs.RowsAffected != 1 {
			t.Fatalf("update: %v, %v", rs, err)
		}
	}
	read() // warm the pools, the text table and the block cache
	update()
	for _, tc := range []struct {
		name string
		op   func()
		max  float64
	}{
		{"point SELECT", read, 17}, // parent: 39
		{"UPDATE", update, 50},     // parent: 143
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
// the appliers' requests, the pooled parser — from many goroutines at
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
					rss, err := c.BatchQueryCtx(trace.SpanContext{}, "SELECT v FROM kvdata"+pad+" WHERE k = ?", keys)
					if err != nil {
						t.Error(err)
						return
					}
					for k, rs := range rss {
						if len(rs.Rows) != 1 || !bytes.Equal(rs.Rows[0][0].Blob, latest[k]) {
							t.Errorf("worker %d batch read %v: %v; want %q", g, keys[k], rs.Rows, latest[k])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := n.firstApplyErr(); err != nil {
		t.Fatal(err)
	}
	if len(n.texts) > maxStmtTexts {
		t.Fatalf("text table holds %d texts, bound %d", len(n.texts), maxStmtTexts)
	}
}
