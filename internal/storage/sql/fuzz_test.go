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
	"UPDATE kvdata SET v = ? WHERE k = ?",
	"UPDATE t SET a = 'x', b = 2.5, c = NULL WHERE id IN (1, 2) AND d >= ?",
	"update T set A = 'it''s' where ID = 3;",
	"UPDATE t SET a = ?",
	"DELETE FROM t WHERE k = ? AND v != 'x'",
	"UPDATE t SET a = 1 WHERE",
	"UPDATE t SET WHERE id = 1",
	"UPDATE t SET a = 1 WHERE b = 2 OR c = 3",
}

// unrelatedStatements are parsed between a statement's parses: a SELECT
// with every clause, and an UPDATE, the statement a replica parses once
// per write.
var unrelatedStatements = []string{
	"SELECT a, b, c FROM unrelated JOIN other ON unrelated.id = other.uid WHERE x = ? AND y = 'p' AND z = 3",
	"UPDATE unrelated SET p = 'q', r = ?, s = 7 WHERE x = ? AND y = 1",
}

// FuzzParse holds the parser's reuse hazards: it parses with pooled
// state, and no AST may point into it; and a Scratch's AST is written by
// parses into that Scratch and nothing else. So an unrelated parse —
// pooled, or into another Scratch — leaves an earlier AST as it was
// (checked by its rendering, before a re-parse of the same input could
// write the same values back); parsing an input twice, with unrelated
// statements parsed in between, gives equal ASTs or equal errors; and a
// parse into a Scratch that held another statement gives the AST, or the
// error, a pooled parse gives. A parsed statement renders to SQL that
// parses back to the same AST.
func FuzzParse(f *testing.F) {
	for _, src := range parserTestStatements {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		var mine, other Scratch
		for _, u := range unrelatedStatements {
			if _, err := mine.Parse(u); err != nil { // mine held another statement
				t.Fatal(err)
			}
		}
		first, err1 := Parse(src)
		scratched, errS := mine.Parse(src)
		var before, beforeS string
		if err1 == nil {
			before = Render(first)
		}
		if errS == nil {
			beforeS = Render(scratched)
		}
		for _, u := range unrelatedStatements {
			if _, err := Parse(u); err != nil {
				t.Fatal(err)
			}
			if _, err := other.Parse(u); err != nil {
				t.Fatal(err)
			}
		}
		if err1 == nil && Render(first) != before {
			t.Fatalf("Parse(%q) changed after an unrelated parse: %q, then %q", src, before, Render(first))
		}
		if errS == nil && Render(scratched) != beforeS {
			t.Fatalf("Scratch.Parse(%q) changed after unrelated parses: %q, then %q", src, beforeS, Render(scratched))
		}
		second, err2 := Parse(src)
		for _, err := range []error{err2, errS} {
			if (err1 == nil) != (err == nil) || err1 != nil && err1.Error() != err.Error() {
				t.Fatalf("Parse(%q) errors differ: %v, then %v", src, err1, err)
			}
		}
		if err1 != nil {
			return
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("Parse(%q) changed after an unrelated parse:\n  %#v\nvs\n  %#v", src, first, second)
		}
		if !reflect.DeepEqual(first, scratched) {
			t.Fatalf("Scratch.Parse(%q) differs from Parse:\n  %#v\nvs\n  %#v", src, scratched, first)
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
