package storage

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"cachecost/internal/meter"
	"cachecost/internal/rpc"
	"cachecost/internal/storage/plan"
	"cachecost/internal/storage/sql"
	"cachecost/internal/trace"
)

// TestStatementRunsDuringAnothersBurn: a statement's modeled CPU is
// burned after it releases the node's lock, so a second statement runs
// to completion while the first is still spinning. The first is a point
// read that misses the block cache, whose disk penalty is set to tens of
// millions of units; the second reads a row from the memtable and owes
// only the front-end work and the lease, as every read does. (Both owe the
// same front-end work, so that burn cannot be the long one.) The second
// starts once the first has counted its disk read, and must return while
// the first has not: nothing here sleeps or reads a clock.
func TestStatementRunsDuringAnothersBurn(t *testing.T) {
	n := NewNode(Config{
		Replicas:         3,
		BlockCacheBytes:  1, // no page fits: every page load is a disk read
		DiskPenaltyPerOp: 1 << 26,
		Meter:            meter.NewMeter(),
	})
	c := NewClient(rpc.NewDirect(n.Server()))
	if err := n.Bootstrap([]string{
		"CREATE TABLE t (id INT PRIMARY KEY, v TEXT)",
		"INSERT INTO t (id, v) VALUES (1, 'paged')",
	}); err != nil {
		t.Fatal(err)
	}
	leader := n.stores[0]
	leader.BulkLoad(func() { leader.DataBytes() }) // row 1 goes to the pages
	if err := n.BootstrapExec("INSERT INTO t (id, v) VALUES (2, 'buffered')"); err != nil {
		t.Fatal(err)
	}

	reads := leader.Stats().DiskReads
	done := make(chan error, 1)
	go func() {
		rs, err := c.Query("SELECT v FROM t WHERE id = ?", sql.Int64(1))
		if err == nil && (len(rs.Rows) != 1 || rs.Rows[0][0].Str != "paged") {
			err = fmt.Errorf("row 1 = %v", rs.Rows)
		}
		done <- err
	}()
	for leader.Stats().DiskReads == reads {
		runtime.Gosched()
	}
	rs, err := c.Query("SELECT v FROM t WHERE id = ?", sql.Int64(2))
	if err != nil || len(rs.Rows) != 1 || rs.Rows[0][0].Str != "buffered" {
		t.Fatalf("row 2 = %v, %v", rs, err)
	}
	select {
	case err := <-done:
		t.Fatalf("the paged read (err %v) returned before the buffered one: the second statement waited for the first one's disk penalty", err)
	default:
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentStatementsConserveUnits runs two goroutines' mixed
// statements — INSERTs of new rows, UPDATEs, point SELECTs, version
// checks and batches — on one node, and the same statements one stream
// after the other on a twin. Debt is settled on each statement's own lane
// after the lock, so concurrency may reorder the burns but not move a unit
// or an operation between components: both meters must agree component
// by component. Every follower must hold exactly the leader's keys,
// values and versions. Run it with -race.
func TestConcurrentStatementsConserveUnits(t *testing.T) {
	const (
		streams = 2
		ops     = 120
	)
	setup := func() (*Node, *Client, *meter.Meter) {
		m := meter.NewMeter()
		n := NewNode(Config{Replicas: 3, BlockCacheBytes: 8 << 20, Meter: m})
		if err := n.Bootstrap([]string{"CREATE TABLE t (id INT PRIMARY KEY, v BLOB)"}); err != nil {
			t.Fatal(err)
		}
		for id := 0; id < streams*ops; id++ {
			if err := n.BootstrapExec("INSERT INTO t (id, v) VALUES (?, ?)", sql.Int64(int64(id)), sql.Blob(bytes.Repeat([]byte{'b'}, 64))); err != nil {
				t.Fatal(err)
			}
		}
		m.Reset()
		return n, NewClient(rpc.NewDirect(n.Server())), m
	}
	// stream g reads and rewrites only its own rows, and inserts rows no
	// other stream touches, so each statement owes the same work in
	// either order.
	stream := func(c *Client, g int) error {
		own := func(i int) sql.Value { return sql.Int64(int64(g*ops + i%ops)) }
		for i := 0; i < ops; i++ {
			var err error
			switch i % 5 {
			case 0:
				_, err = c.Exec("INSERT INTO t (id, v) VALUES (?, ?)", sql.Int64(int64(10_000*(g+1)+i)), sql.Blob(bytes.Repeat([]byte{'n'}, 100+i)))
			case 1:
				_, err = c.Exec("UPDATE t SET v = ? WHERE id = ?", sql.Blob(bytes.Repeat([]byte{'u'}, 32+i)), own(i-1))
			case 2:
				var rs *plan.ResultSet
				if rs, err = c.Query("SELECT v FROM t WHERE id = ?", own(i-2)); err == nil {
					if len(rs.Rows) != 1 {
						err = fmt.Errorf("stream %d: %d rows for its row", g, len(rs.Rows))
					}
					rs.Release()
				}
			case 3:
				_, _, err = c.VersionCtx(trace.SpanContext{}, "t", own(i))
			default:
				var resp *BatchQueryResponse
				resp, err = c.BatchQueryCtx(trace.SpanContext{}, "SELECT v FROM t WHERE id = ?", []sql.Value{own(i), own(i + 1), own(i + 2)})
				if err == nil {
					rpc.PutBuffer(resp.Detach())
				}
			}
			if err != nil {
				return err
			}
		}
		return nil
	}

	serialNode, serial, serialMeter := setup()
	for g := 0; g < streams; g++ {
		if err := stream(serial, g); err != nil {
			t.Fatal(err)
		}
	}
	concNode, conc, concMeter := setup()
	errs := make(chan error, streams)
	var wg sync.WaitGroup
	for g := 0; g < streams; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs <- stream(conc, g)
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	want, got := serialMeter.Snapshot(), concMeter.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("components: concurrent %v, serial %v", got, want)
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name || g.Units != w.Units || g.Ops != w.Ops {
			t.Errorf("%s: concurrent %d units in %d ops, serial %s %d units in %d ops", g.Name, g.Units, g.Ops, w.Name, w.Units, w.Ops)
		}
		if w.Name != "storage.exec" && w.Units == 0 {
			t.Errorf("%s burned no modeled units", w.Name)
		}
	}
	requireReplicasMatch(t, serialNode)
	requireReplicasMatch(t, concNode)
}
