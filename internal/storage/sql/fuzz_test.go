package sql

import (
	"reflect"
	"sync"
	"testing"
)

// parserTestStatements seeds FuzzParse: the statements the parser and
// render tests use, valid and invalid.
var parserTestStatements = []string{
	"SELECT * FROM users",
	"SELECT id, name, email FROM users",
	"SELECT users.id, name FROM users",
	"SELECT * FROM t WHERE a = 5 AND b != 'x' AND c <= 2.5 AND d IN (1, 2, 3)",
	"SELECT tables.name, perms.level FROM tables JOIN perms ON tables.id = perms.table_id WHERE tables.id = ?",
	"SELECT * FROM logs WHERE sev >= 3 ORDER BY ts DESC LIMIT 10",
	"SELECT * FROM t WHERE a = ? AND b = ? AND c IN (?, ?)",
	"INSERT INTO t (a, b) VALUES (1, 'x'), (2, ?)",
	"UPDATE t SET a = 1, b = ? WHERE id = 7",
	"DELETE FROM t WHERE id = 1",
	"CREATE TABLE users (id INT PRIMARY KEY, name TEXT, score FLOAT, data BLOB, ok BOOL)",
	"CREATE TABLE IF NOT EXISTS t (id INT PRIMARY KEY)",
	"CREATE INDEX idx_owner ON tables (owner_id)",
	"select ID from USERS where NAME = 'Bob'",
	"SELECT * FROM t WHERE a = 'it''s'",
	"SELECT * FROM t WHERE a = -5 AND b = -2.5",
	"SELECT * FROM t WHERE a = NULL AND b = TRUE AND c = FALSE",
	"SELECT * FROM t;",
	"SELECT * FROM t WHERE a = 1.0 AND b = 1e3",
	"SELECT * FROM t WHERE a = 1 OR b = 2",
	"SELECT * FROM t WHERE a = 'unterminated",
	"SELECT * FROM t WHERE a ! 1",
	"CREATE TABLE IF t (id INT)",
	"FOO BAR",
}

// FuzzParse holds the parser's reuse hazard: it parses with pooled
// state, and no AST may point into it. So an unrelated parse leaves an
// earlier AST as it was (checked by its rendering, before a re-parse of
// the same input could write the same values back), and parsing an input
// twice, with an unrelated statement parsed in between, gives equal ASTs
// or equal errors. A parsed statement renders to SQL that parses back to
// the same AST.
func FuzzParse(f *testing.F) {
	for _, src := range parserTestStatements {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		first, err1 := Parse(src)
		var before string
		if err1 == nil {
			before = Render(first)
		}
		if _, err := Parse("SELECT a, b, c FROM unrelated WHERE x = ? AND y IN ('p', 'q', ?) ORDER BY z LIMIT 3"); err != nil {
			t.Fatal(err)
		}
		if err1 == nil && Render(first) != before {
			t.Fatalf("Parse(%q) changed after an unrelated parse: %q, then %q", src, before, Render(first))
		}
		second, err2 := Parse(src)
		if (err1 == nil) != (err2 == nil) || err1 != nil && err1.Error() != err2.Error() {
			t.Fatalf("Parse(%q) errors differ: %v, then %v", src, err1, err2)
		}
		if err1 != nil {
			return
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("Parse(%q) changed after an unrelated parse:\n  %#v\nvs\n  %#v", src, first, second)
		}
		rendered := Render(first)
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("reparse of %q (rendered from %q): %v", rendered, src, err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("roundtrip AST mismatch:\n  src:      %q\n  rendered: %q\n  %#v\nvs\n  %#v", src, rendered, first, again)
		}
	})
}

// TestParseConcurrent: goroutines sharing the parser pool each get an AST
// of their own statement. Run it with -race.
func TestParseConcurrent(t *testing.T) {
	want := make(map[string]string)
	for _, src := range parserTestStatements {
		if st, err := Parse(src); err == nil {
			want[src] = Render(st)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				src := parserTestStatements[(g+i)%len(parserTestStatements)]
				st, err := Parse(src)
				if r, ok := want[src]; ok != (err == nil) || ok && Render(st) != r {
					t.Errorf("Parse(%q) = %v, %v; want %q", src, st, err, r)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
