package sql

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"cachecost/internal/wire"
)

func mustParse(t *testing.T, src string) Stmt {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return st
}

func TestParseSelectStar(t *testing.T) {
	st := mustParse(t, "SELECT * FROM users").(*SelectStmt)
	if !st.Star || st.Table != "users" || len(st.Where) != 0 {
		t.Fatalf("parsed %+v", st)
	}
}

func TestParseSelectColumns(t *testing.T) {
	st := mustParse(t, "SELECT id, name, email FROM users").(*SelectStmt)
	if st.Star || len(st.Cols) != 3 {
		t.Fatalf("parsed %+v", st)
	}
}

func TestParseSelectQualifiedCols(t *testing.T) {
	st := mustParse(t, "SELECT users.id, name FROM users").(*SelectStmt)
	if len(st.Cols) != 2 {
		t.Fatalf("cols = %v", st.Cols)
	}
	if st.Cols[0].Table != "users" || st.Cols[0].Column != "id" {
		t.Fatalf("qualified col = %+v", st.Cols[0])
	}
	if st.Cols[1].Table != "" || st.Cols[1].Column != "name" {
		t.Fatalf("bare col = %+v", st.Cols[1])
	}
}

func TestParseSelectWhere(t *testing.T) {
	st := mustParse(t, "SELECT * FROM t WHERE a = 5 AND b = 'x' AND c = NULL").(*SelectStmt)
	if len(st.Where) != 3 {
		t.Fatalf("preds = %d", len(st.Where))
	}
	if st.Where[0].Col.Column != "a" || st.Where[0].X.Value.Int != 5 {
		t.Fatalf("pred0 = %+v", st.Where[0])
	}
	if st.Where[1].X.Value.Str != "x" {
		t.Fatalf("pred1 = %+v", st.Where[1])
	}
	if !st.Where[2].X.Value.IsNull() {
		t.Fatalf("pred2 = %+v", st.Where[2])
	}
}

func TestParseSelectJoin(t *testing.T) {
	st := mustParse(t,
		"SELECT tables.name, perms.level FROM tables JOIN perms ON tables.id = perms.table_id WHERE tables.id = ?",
	)
	sel := st.(*SelectStmt)
	if len(sel.Joins) != 1 {
		t.Fatalf("joins = %+v", sel.Joins)
	}
	j := sel.Joins[0]
	if j.Table != "perms" || j.Left.String() != "tables.id" || j.Right.String() != "perms.table_id" {
		t.Fatalf("join = %+v", j)
	}
	if !sel.Where[0].X.IsParam || sel.Where[0].X.Param != 1 {
		t.Fatalf("param = %+v", sel.Where[0].X)
	}
}

func TestParseParamsNumberedLeftToRight(t *testing.T) {
	st := mustParse(t, "SELECT * FROM t WHERE a = ? AND b = ? AND c = ?").(*SelectStmt)
	if st.Where[0].X.Param != 1 || st.Where[1].X.Param != 2 || st.Where[2].X.Param != 3 {
		t.Fatalf("params = %+v", st.Where)
	}

	// A bulk INSERT numbers its placeholders in one pass: 1,000 of them
	// parse in about the time 1,000 literals do. Numbering by rescanning
	// the earlier tokens for each ? took ~9x as long.
	const n = 1000
	ins := mustParse(t, bulkInsert(n, "?")).(*InsertStmt)
	last := ins.Rows[len(ins.Rows)-1]
	if got := last[len(last)-1].Param; got != n {
		t.Fatalf("last placeholder is $%d, want $%d", got, n)
	}
	params, literals := minParseTime(bulkInsert(n, "?")), minParseTime(bulkInsert(n, "1"))
	if params > 3*literals {
		t.Fatalf("%d placeholders parse in %v, %d literals in %v: numbering is not linear",
			n, params, n, literals)
	}
}

// bulkInsert is a two-column INSERT of n values, each written as x.
func bulkInsert(n int, x string) string {
	var b strings.Builder
	b.WriteString("INSERT INTO t (a, b) VALUES ")
	for i := 0; i < n/2; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%s, %s)", x, x)
	}
	return b.String()
}

// minParseTime is the fastest of several parses of src: the minimum
// discards scheduler and collector noise.
func minParseTime(src string) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 11; i++ {
		t0 := time.Now()
		if _, err := Parse(src); err != nil {
			panic(err)
		}
		best = min(best, time.Since(t0))
	}
	return best
}

// TestLexKeywordTable: keywords lex as keywords in any case, as their
// canonical upper-case text; a word that extends or prefixes a keyword,
// or is longer than any keyword, is an identifier with its text intact.
func TestLexKeywordTable(t *testing.T) {
	for _, w := range []string{"select", "SeLeCt", "SELECT", "into", "Primary", "exists", "key"} {
		toks, err := lex(nil, w)
		if err != nil {
			t.Fatal(err)
		}
		kw, isKW := keywords[strings.ToUpper(w)]
		switch {
		case isKW && (toks[0].kind != tokKeyword || toks[0].text != kw):
			t.Errorf("lex(%q) = %v %q, want keyword %q", w, toks[0].kind, toks[0].text, kw)
		case !isKW && (toks[0].kind != tokIdent || toks[0].text != w):
			t.Errorf("lex(%q) = %v %q, want identifier", w, toks[0].kind, toks[0].text)
		}
	}
	for _, w := range []string{"selected", "into_x", "k", "selec", "primaryk", "primary_key", "existsxyz", "tablespace"} {
		toks, err := lex(nil, w)
		if err != nil {
			t.Fatal(err)
		}
		if toks[0].kind != tokIdent || toks[0].text != w {
			t.Errorf("lex(%q) = %v %q, want identifier %q", w, toks[0].kind, toks[0].text, w)
		}
	}
	for kw := range keywords {
		if len(kw) > maxKeywordLen {
			t.Errorf("keyword %q is longer than maxKeywordLen %d", kw, maxKeywordLen)
		}
	}
}

func TestParseInsert(t *testing.T) {
	st := mustParse(t, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, ?)").(*InsertStmt)
	if st.Table != "t" || len(st.Cols) != 2 || len(st.Rows) != 2 {
		t.Fatalf("insert = %+v", st)
	}
	if st.Rows[0][1].Value.Str != "x" {
		t.Fatalf("row0 = %+v", st.Rows[0])
	}
	if !st.Rows[1][1].IsParam || st.Rows[1][1].Param != 1 {
		t.Fatalf("row1 param = %+v", st.Rows[1][1])
	}
}

func TestParseInsertArityMismatch(t *testing.T) {
	if _, err := Parse("INSERT INTO t (a, b) VALUES (1)"); err == nil {
		t.Fatal("arity mismatch should fail")
	}
}

func TestParseUpdate(t *testing.T) {
	st := mustParse(t, "UPDATE t SET a = 1, b = ? WHERE id = 7").(*UpdateStmt)
	if len(st.Set) != 2 || st.Set[0].Column != "a" || !st.Set[1].X.IsParam {
		t.Fatalf("update = %+v", st)
	}
	if len(st.Where) != 1 || st.Where[0].X.Value.Int != 7 {
		t.Fatalf("where = %+v", st.Where)
	}
}

func TestParseCreateTable(t *testing.T) {
	st := mustParse(t, "CREATE TABLE users (id INT PRIMARY KEY, name TEXT, data BLOB)").(*CreateTableStmt)
	if st.Table != "users" || len(st.Cols) != 3 {
		t.Fatalf("create = %+v", st)
	}
	if !st.Cols[0].PrimaryKey || st.Cols[0].Kind != KindInt {
		t.Fatalf("pk col = %+v", st.Cols[0])
	}
	if st.Cols[1].Kind != KindText || st.Cols[2].Kind != KindBlob {
		t.Fatalf("cols = %+v", st.Cols)
	}
}

func TestParseCreateTableIfNotExists(t *testing.T) {
	st := mustParse(t, "CREATE TABLE IF NOT EXISTS t (id INT PRIMARY KEY)").(*CreateTableStmt)
	if !st.IfNotExists {
		t.Fatal("IF NOT EXISTS not recognized")
	}
}

func TestParseCreateIndex(t *testing.T) {
	st := mustParse(t, "CREATE INDEX idx_owner ON tables (owner_id)").(*CreateIndexStmt)
	if st.Name != "idx_owner" || st.Table != "tables" || st.Column != "owner_id" {
		t.Fatalf("index = %+v", st)
	}
}

func TestParseCaseInsensitivity(t *testing.T) {
	st := mustParse(t, "select ID from USERS where NAME = 'Bob'").(*SelectStmt)
	if st.Table != "users" || st.Cols[0].Column != "id" || st.Where[0].Col.Column != "name" {
		t.Fatalf("identifiers should normalize: %+v", st)
	}
	if st.Where[0].X.Value.Str != "Bob" {
		t.Fatal("string literal case must be preserved")
	}
}

func TestParseStringEscapes(t *testing.T) {
	st := mustParse(t, "SELECT * FROM t WHERE a = 'it''s'").(*SelectStmt)
	if st.Where[0].X.Value.Str != "it's" {
		t.Fatalf("escape parsing: %q", st.Where[0].X.Value.Str)
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	st := mustParse(t, "SELECT * FROM t WHERE a = -5").(*SelectStmt)
	if st.Where[0].X.Value.Int != -5 {
		t.Fatalf("negative int: %+v", st.Where[0].X.Value)
	}
}

func TestParseLiterals(t *testing.T) {
	st := mustParse(t, "SELECT * FROM t WHERE a = NULL AND b = 7 AND c = 'x'").(*SelectStmt)
	if !st.Where[0].X.Value.IsNull() {
		t.Fatal("NULL literal")
	}
	if st.Where[1].X.Value.Kind != KindInt || st.Where[1].X.Value.Int != 7 {
		t.Fatal("INT literal")
	}
	if st.Where[2].X.Value.Kind != KindText || st.Where[2].X.Value.Str != "x" {
		t.Fatal("TEXT literal")
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	mustParse(t, "SELECT * FROM t;")
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"FOO BAR",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE a",
		"SELECT * FROM t WHERE a = ",
		"SELECT * FROM t WHERE a = 1 OR b = 2",
		"SELECT * FROM t LIMIT x",
		"SELECT * FROM t LIMIT -1",
		"INSERT INTO t VALUES (1)",
		"INSERT INTO t (a) VALUE (1)",
		"UPDATE t a = 1",
		"DELETE t",
		"CREATE t",
		"CREATE TABLE t (id INTEGER)",
		"CREATE TABLE t (id INT PRIMARY)",
		"CREATE INDEX i ON t",
		"SELECT * FROM t WHERE a = 'unterminated",
		"SELECT * FROM t extra garbage",
		"SELECT * FROM t WHERE a ! 1",
		"SELECT * FROM t WHERE a IN ()",
		"CREATE TABLE IF t (id INT)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// TestRemovedConstructsRejected: the grammar is the one the workloads
// send. Each construct outside it is a *ParseError, never a panic, from
// both a pooled parse and a Scratch that held another statement.
func TestRemovedConstructsRejected(t *testing.T) {
	for _, src := range []string{
		"DELETE FROM t WHERE id = 1",
		"DELETE FROM t",
		"SELECT * FROM t WHERE a != 1",
		"SELECT * FROM t WHERE a < 1",
		"SELECT * FROM t WHERE a <= 1",
		"SELECT * FROM t WHERE a > 1",
		"SELECT * FROM t WHERE a >= 1",
		"SELECT * FROM t WHERE a IN (1, 2)",
		"SELECT * FROM t WHERE a IN (?)",
		"SELECT * FROM t WHERE a = 1 OR b = 2",
		"UPDATE t SET a = 1 WHERE b = 2 OR c = 3",
		"SELECT * FROM t ORDER BY a",
		"SELECT * FROM t WHERE a = ? ORDER BY a DESC",
		"SELECT * FROM t LIMIT 5",
		"SELECT a FROM t JOIN u ON t.id = u.tid ORDER BY u.x LIMIT 2",
		"CREATE TABLE t (id INT PRIMARY KEY, score FLOAT)",
		"CREATE TABLE t (id INT PRIMARY KEY, ok BOOL)",
		"SELECT * FROM t WHERE a = TRUE",
		"UPDATE t SET a = FALSE WHERE id = 1",
		"SELECT * FROM t WHERE a = 2.5",
		"INSERT INTO t (a) VALUES (1e3)",
		"INSERT INTO t (a) VALUES (-0.5)",
	} {
		var sc Scratch
		if _, err := sc.Parse("UPDATE t SET a = ?, b = 'x' WHERE id = ? AND c = 3"); err != nil {
			t.Fatal(err)
		}
		for name, parse := range map[string]func(string) (Stmt, error){"Parse": Parse, "Scratch.Parse": sc.Parse} {
			st, err := parse(src)
			if _, ok := err.(*ParseError); !ok {
				t.Errorf("%s(%q) = %v, %v; want a *ParseError", name, src, st, err)
			}
		}
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := Parse("SELECT * FROM t WHERE a = 1 OR b = 2")
	if err == nil {
		t.Fatal("expected error")
	}
	var pe *ParseError
	if !asParseError(err, &pe) {
		t.Fatalf("want ParseError, got %T: %v", err, err)
	}
	if pe.Pos <= 0 || !strings.Contains(pe.Msg, "OR") {
		t.Fatalf("unhelpful error: %+v", pe)
	}
}

func asParseError(err error, out **ParseError) bool {
	pe, ok := err.(*ParseError)
	if ok {
		*out = pe
	}
	return ok
}

// TestValueCompare: equality is the one comparison the engine makes
// (WHERE col = x, a JOIN's ON, an UPDATE's index maintenance). Values of
// different kinds differ, and NULL equals nothing, itself included.
func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Int64(2), Int64(2), true},
		{Int64(1), Int64(2), false},
		{Text("b"), Text("b"), true},
		{Text("a"), Text("b"), false},
		{Blob([]byte{1}), Blob([]byte{1}), true},
		{Blob([]byte{1}), Blob([]byte{1, 0}), false},
		{Int64(1), Text("1"), false},
		{Text("x"), Blob([]byte("x")), false},
		{Null(), Int64(0), false},
		{Null(), Null(), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestValueEqualNullSemantics(t *testing.T) {
	if Null().Equal(Null()) {
		t.Fatal("NULL = NULL must be false in SQL")
	}
	if !Int64(5).Equal(Int64(5)) {
		t.Fatal("5 = 5")
	}
	if Int64(5).Equal(Text("5")) {
		t.Fatal("5 = '5' across kinds")
	}
}

func TestValueEncodeDecodeRoundtrip(t *testing.T) {
	vals := []Value{
		Null(), Int64(-42), Text("hello"), Blob([]byte{1, 2, 3}),
		Text(strings.Repeat("x", 10000)),
	}
	for _, v := range vals {
		e := wire.NewEncoder(64)
		EncodeValue(e, 1, v)
		d := wire.NewDecoder(e.Bytes())
		if _, _, err := d.Next(); err != nil {
			t.Fatalf("decode tag for %v: %v", v, err)
		}
		body, err := d.Bytes()
		if err != nil {
			t.Fatalf("decode body for %v: %v", v, err)
		}
		got, err := AliasValue(body)
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if got.Kind != v.Kind {
			t.Fatalf("roundtrip kind %v -> %v", v.Kind, got.Kind)
		}
		if !v.IsNull() && !got.Equal(v) {
			t.Fatalf("roundtrip %v -> %v", v, got)
		}
	}
}

func TestValueKeyBytesOrderPreserving(t *testing.T) {
	ints := []int64{-1000, -1, 0, 1, 5, 1000000}
	for i := 1; i < len(ints); i++ {
		a := Int64(ints[i-1]).KeyBytes()
		b := Int64(ints[i]).KeyBytes()
		if string(a) >= string(b) {
			t.Fatalf("KeyBytes(%d) >= KeyBytes(%d)", ints[i-1], ints[i])
		}
	}
	strs := []string{"", "a", "ab", "b"}
	for i := 1; i < len(strs); i++ {
		if string(Text(strs[i-1]).KeyBytes()) >= string(Text(strs[i]).KeyBytes()) {
			t.Fatalf("text key order broken at %q", strs[i])
		}
	}
}

func TestValueString(t *testing.T) {
	if Int64(5).String() != "5" || Text("x").String() != "'x'" || Null().String() != "NULL" {
		t.Fatal("Value.String formatting broken")
	}
}

func TestValueSize(t *testing.T) {
	if Text("hello").Size() <= Text("").Size() {
		t.Fatal("size should grow with content")
	}
	if Blob(make([]byte, 100)).Size() < 100 {
		t.Fatal("blob size undercounts")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		kindNull: "NULL", KindInt: "INT", KindText: "TEXT", KindBlob: "BLOB",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q", k, k.String())
		}
	}
}

func BenchmarkParsePointSelect(b *testing.B) {
	src := "SELECT id, name, owner FROM tables WHERE id = ?"
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseJoin(b *testing.B) {
	src := "SELECT t.name, p.level FROM tables JOIN perms ON tables.id = perms.table_id WHERE tables.id = ?"
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}
