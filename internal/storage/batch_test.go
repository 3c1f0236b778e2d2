package storage

import (
	"fmt"
	"testing"

	"cachecost/internal/meter"
	"cachecost/internal/rpc"
	"cachecost/internal/storage/plan"
	"cachecost/internal/storage/sql"
	"cachecost/internal/trace"
	"cachecost/internal/wire"
)

func seedBatchTable(t *testing.T, c *Client, rows int) {
	t.Helper()
	if _, err := c.Exec("CREATE TABLE bt (id INT PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := c.Exec("INSERT INTO bt (id, v) VALUES (?, ?)",
			sql.Int64(int64(i)), sql.Text(fmt.Sprintf("row%d", i))); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBatchQueryPositionalResults(t *testing.T) {
	_, c := newTestNode(t, nil)
	seedBatchTable(t, c, 8)

	// Mixed batch, out of order, with one absent key.
	params := []sql.Value{sql.Int64(5), sql.Int64(999), sql.Int64(0), sql.Int64(5)}
	resp, err := c.BatchQueryCtx(trace.SpanContext{}, "SELECT v FROM bt WHERE id = ?", params)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { rpc.PutBuffer(resp.Detach()) }()
	results := resp.Results
	if len(results) != 4 {
		t.Fatalf("got %d result sets, want 4", len(results))
	}
	want := []string{"row5", "", "row0", "row5"}
	for i, rs := range results {
		if want[i] == "" {
			if len(rs.Rows) != 0 {
				t.Fatalf("slot %d: rows = %v, want none", i, rs.Rows)
			}
			continue
		}
		if len(rs.Rows) != 1 || rs.Rows[0][0].Str != want[i] {
			t.Fatalf("slot %d: rows = %v, want %q", i, rs.Rows, want[i])
		}
	}
}

func TestBatchQueryRejectsNonSelectAndEmpty(t *testing.T) {
	_, c := newTestNode(t, nil)
	seedBatchTable(t, c, 1)
	if _, err := c.BatchQueryCtx(trace.SpanContext{}, "INSERT INTO bt (id, v) VALUES (?, 'x')", []sql.Value{sql.Int64(9)}); err == nil {
		t.Fatal("BatchQuery should reject writes")
	}
	if rs, err := c.BatchQueryCtx(trace.SpanContext{}, "SELECT v FROM bt WHERE id = ?", nil); err != nil || rs != nil {
		t.Fatalf("empty batch = %v, %v; want nil, nil without an RPC", rs, err)
	}
}

// The whole point of the batch path: per-statement overheads — the SQL
// front-end burn above all — are paid once per batch, not once per key,
// so the front-end's busy share per key must shrink as B grows.
func TestBatchQueryAmortizesFrontend(t *testing.T) {
	const keys = 16

	run := func(batched bool) (sqlBusy, totalBusy float64) {
		m := meter.NewMeter()
		_, c := newTestNode(t, m)
		seedBatchTable(t, c, keys)
		m.Reset()

		params := make([]sql.Value, keys)
		for i := range params {
			params[i] = sql.Int64(int64(i))
		}
		if batched {
			resp, err := c.BatchQueryCtx(trace.SpanContext{}, "SELECT v FROM bt WHERE id = ?", params)
			if err != nil {
				t.Fatal(err)
			}
			for i, rs := range resp.Results {
				if len(rs.Rows) != 1 {
					t.Fatalf("batched slot %d: %v", i, rs.Rows)
				}
			}
			rpc.PutBuffer(resp.Detach())
		} else {
			for _, p := range params {
				rs, err := c.Query("SELECT v FROM bt WHERE id = ?", p)
				if err != nil {
					t.Fatal(err)
				}
				if len(rs.Rows) != 1 {
					t.Fatalf("scalar read: %v", rs.Rows)
				}
				rs.Release()
			}
		}
		for _, snap := range m.Snapshot() {
			if snap.Name == "storage.sql" {
				sqlBusy = snap.Busy.Seconds()
			}
			totalBusy += snap.Busy.Seconds()
		}
		return sqlBusy, totalBusy
	}

	scalarSQL, scalarTotal := run(false)
	batchSQL, batchTotal := run(true)
	if scalarSQL <= 0 || batchSQL <= 0 {
		t.Fatalf("missing storage.sql attribution: scalar=%v batch=%v", scalarSQL, batchSQL)
	}
	// One front-end burn instead of 16: expect a large drop, with slack
	// for per-byte marshal work that still scales with keys.
	if batchSQL > scalarSQL/2 {
		t.Fatalf("storage.sql busy: batch %v vs scalar %v — batching did not amortize the front-end", batchSQL, scalarSQL)
	}
	if batchTotal >= scalarTotal {
		t.Fatalf("total busy: batch %v vs scalar %v — batch path should be cheaper end to end", batchTotal, scalarTotal)
	}
}

// Replaying the batch through a metered node must keep the exec lane's
// row results identical to scalar reads (same plan, same rows).
func TestBatchQueryMatchesScalarReads(t *testing.T) {
	_, c := newTestNode(t, nil)
	seedBatchTable(t, c, 6)
	params := make([]sql.Value, 6)
	for i := range params {
		params[i] = sql.Int64(int64(i))
	}
	resp, err := c.BatchQueryCtx(trace.SpanContext{}, "SELECT v FROM bt WHERE id = ?", params)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { rpc.PutBuffer(resp.Detach()) }()
	batched := resp.Results
	for i, p := range params {
		scalar, err := c.Query("SELECT v FROM bt WHERE id = ?", p)
		if err != nil {
			t.Fatal(err)
		}
		if len(batched[i].Rows) != len(scalar.Rows) {
			t.Fatalf("slot %d: batch %d rows, scalar %d rows", i, len(batched[i].Rows), len(scalar.Rows))
		}
		if batched[i].Rows[0][0].Str != scalar.Rows[0][0].Str {
			t.Fatalf("slot %d: batch %q, scalar %q", i, batched[i].Rows[0][0].Str, scalar.Rows[0][0].Str)
		}
		scalar.Release()
	}
}

// A recycled batch response references nothing of the buffer it was
// decoded from, and one with more than maxKeptResults sets keeps none.
func TestBatchDetachKeepsNothingOfTheResponse(t *testing.T) {
	for _, n := range []int{3, maxKeptResults + 1} {
		in := BatchQueryResponse{Results: make([]plan.ResultSet, n)}
		for i := range in.Results {
			in.Results[i] = plan.ResultSet{Cols: []string{"v"}, Rows: [][]sql.Value{{sql.Text("row")}}}
		}
		buf := wire.Marshal(&in)
		r := new(BatchQueryResponse)
		if err := wire.Unmarshal(buf, r); err != nil {
			t.Fatal(err)
		}
		r.held = buf
		if held := r.Detach(); &held[0] != &buf[0] {
			t.Fatalf("%d sets: Detach handed back another buffer", n)
		}
		if n > maxKeptResults {
			if r.Results != nil {
				t.Errorf("%d sets: the recycled response kept %d", n, cap(r.Results))
			}
			continue
		}
		for i, rs := range r.Results[:cap(r.Results)] {
			if rs.Cols != nil || rs.Rows != nil {
				t.Errorf("%d sets: recycled set %d still holds %v %v", n, i, rs.Cols, rs.Rows)
			}
		}
	}
}
