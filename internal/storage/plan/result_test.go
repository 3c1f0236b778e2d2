package plan

import (
	"bytes"
	"reflect"
	"testing"

	"cachecost/internal/storage/sql"
	"cachecost/internal/wire"
)

// TestQueryEachAnswersPositionally: a batch's results are the DB's own
// until its next statement, each answering its own parameter, and none
// is overwritten by the ones after it.
func TestQueryEachAnswersPositionally(t *testing.T) {
	db := newTestDB(t)
	seedUsers(t, db)
	stmt, err := sql.Parse("SELECT name, age FROM users WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	params := []sql.Value{sql.Int64(3), sql.Int64(9), sql.Int64(1), sql.Int64(3)}
	results, err := db.QueryEach(stmt.(*sql.SelectStmt), params)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"carol", "", "alice", "carol"}
	if len(results) != len(want) {
		t.Fatalf("%d results for %d params", len(results), len(want))
	}
	for i, rs := range results {
		if !reflect.DeepEqual(rs.Cols, []string{"name", "age"}) {
			t.Fatalf("result %d: cols %v", i, rs.Cols)
		}
		switch {
		case want[i] == "" && rs.Rows != nil:
			t.Fatalf("result %d: rows %v, want none", i, rs.Rows)
		case want[i] != "" && (len(rs.Rows) != 1 || rs.Rows[0][0].Str != want[i]):
			t.Fatalf("result %d: rows %v, want %q", i, rs.Rows, want[i])
		}
	}
}

// resultView is what a ResultSet reads as: its exported fields.
type resultView struct {
	Cols         []string
	Rows         [][]sql.Value
	RowsAffected int64
}

func viewOf(rs *ResultSet) resultView { return resultView{rs.Cols, rs.Rows, rs.RowsAffected} }

// FuzzResultSetDecode: decoding into a set that held other results — the
// way a pooled set is reused — reads exactly as a fresh decode, error for
// error and value for value, and so does a borrowed set.
func FuzzResultSetDecode(f *testing.F) {
	seeds := []ResultSet{
		{Cols: []string{"v"}, Rows: [][]sql.Value{{sql.Blob(bytes.Repeat([]byte("b"), 300))}}},
		{Cols: []string{"k", "v"}, Rows: [][]sql.Value{{sql.Text("a"), sql.Null()}, {sql.Text(""), sql.Blob(nil)}}},
		{Cols: []string{"t.id", "u.x", "u.y"}, Rows: [][]sql.Value{{sql.Int64(-1), sql.Text("x"), sql.Int64(1 << 40)}}},
		{Cols: []string{"v"}},
		{RowsAffected: 7},
	}
	for i := range seeds {
		f.Add(wire.Marshal(&seeds[i]))
	}
	f.Add(append(wire.Marshal(&seeds[2]), 0x12, 0x00)) // an empty row against three columns
	f.Add([]byte{0x12, 0x04, 0x2a, 0x02, 0x08})        // a truncated value
	held := wire.Marshal(&ResultSet{
		Cols: []string{"a", "b", "c", "d"},
		Rows: [][]sql.Value{
			{sql.Text("xx"), sql.Int64(1), sql.Blob([]byte("yy")), sql.Null()},
			{sql.Text("zz"), sql.Int64(2), sql.Blob([]byte("ww")), sql.Int64(0)},
		},
		RowsAffected: 3,
	})
	f.Fuzz(func(t *testing.T, in []byte) {
		var fresh ResultSet
		ferr := wire.Unmarshal(append([]byte(nil), in...), &fresh)
		var reused ResultSet
		if err := wire.Unmarshal(held, &reused); err != nil {
			t.Fatal(err)
		}
		rerr := wire.Unmarshal(append([]byte(nil), in...), &reused)
		if (ferr == nil) != (rerr == nil) {
			t.Fatalf("errors disagree: fresh %v, reused %v", ferr, rerr)
		}
		borrowed, berr := Borrow(append([]byte(nil), in...))
		if (ferr == nil) != (berr == nil) {
			t.Fatalf("errors disagree: fresh %v, borrowed %v", ferr, berr)
		}
		if ferr != nil {
			return
		}
		defer borrowed.Release()
		for _, got := range []*ResultSet{&reused, borrowed} {
			if reflect.DeepEqual(viewOf(got), viewOf(&fresh)) {
				continue
			}
			// An empty row decodes as nil or empty: equal encodings are
			// equal values.
			if !bytes.Equal(wire.Marshal(got), wire.Marshal(&fresh)) {
				t.Fatalf("decode into a used set %+v, fresh decode %+v", viewOf(got), viewOf(&fresh))
			}
		}
	})
}
