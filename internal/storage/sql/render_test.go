package sql

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// Render prints a parsed statement back as SQL. The output reparses to an
// equivalent AST, which makes it the parser tests' oracle: FuzzParse
// round-trips every statement it parses through it.
func Render(st Stmt) string {
	var b strings.Builder
	switch s := st.(type) {
	case *SelectStmt:
		b.WriteString("SELECT ")
		if s.Star {
			b.WriteString("*")
		}
		for i, c := range s.Cols {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.String())
		}
		fmt.Fprintf(&b, " FROM %s", s.Table)
		for _, j := range s.Joins {
			fmt.Fprintf(&b, " JOIN %s ON %s = %s", j.Table, j.Left, j.Right)
		}
		renderWhere(&b, s.Where)
	case *InsertStmt:
		fmt.Fprintf(&b, "INSERT INTO %s (%s) VALUES ", s.Table, strings.Join(s.Cols, ", "))
		for i, row := range s.Rows {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString("(")
			for j, x := range row {
				if j > 0 {
					b.WriteString(", ")
				}
				b.WriteString(renderExpr(x))
			}
			b.WriteString(")")
		}
	case *UpdateStmt:
		fmt.Fprintf(&b, "UPDATE %s SET ", s.Table)
		for i, a := range s.Set {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s = %s", a.Column, renderExpr(a.X))
		}
		renderWhere(&b, s.Where)
	case *CreateTableStmt:
		b.WriteString("CREATE TABLE ")
		if s.IfNotExists {
			b.WriteString("IF NOT EXISTS ")
		}
		fmt.Fprintf(&b, "%s (", s.Table)
		for i, c := range s.Cols {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s %s", c.Name, c.Kind)
			if c.PrimaryKey {
				b.WriteString(" PRIMARY KEY")
			}
		}
		b.WriteString(")")
	case *CreateIndexStmt:
		b.WriteString("CREATE INDEX ")
		if s.IfNotExists {
			b.WriteString("IF NOT EXISTS ")
		}
		fmt.Fprintf(&b, "%s ON %s (%s)", s.Name, s.Table, s.Column)
	default:
		fmt.Fprintf(&b, "/* unrenderable %T */", st)
	}
	return b.String()
}

func renderWhere(b *strings.Builder, preds []Pred) {
	for i, p := range preds {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		fmt.Fprintf(b, "%s = %s", p.Col, renderExpr(p.X))
	}
}

// renderExpr prints x as a literal that lexes back to the same value: a
// quote inside text is doubled.
func renderExpr(x Expr) string {
	switch {
	case x.IsParam:
		return "?"
	case x.Value.Kind == KindText:
		return "'" + strings.ReplaceAll(x.Value.Str, "'", "''") + "'"
	default:
		return x.Value.String()
	}
}

// TestRenderRoundtrip: Render(Parse(x)) must reparse to the same AST.
func TestRenderRoundtrip(t *testing.T) {
	sources := []string{
		"SELECT * FROM users",
		"SELECT id, name FROM users WHERE age = 21 AND name = 'bob'",
		"SELECT users.id FROM users JOIN orders ON users.id = orders.uid WHERE orders.total = 100",
		"SELECT * FROM t WHERE a = -1 AND b = ?",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (2, ?)",
		"UPDATE t SET a = 5, b = NULL WHERE id = 9",
		"CREATE TABLE t (id INT PRIMARY KEY, name TEXT, data BLOB)",
		"CREATE TABLE IF NOT EXISTS t (id INT PRIMARY KEY)",
		"CREATE INDEX idx ON t (name)",
		"CREATE INDEX IF NOT EXISTS idx ON t (name)",
	}
	for _, src := range sources {
		st1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		rendered := Render(st1)
		st2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("reparse of %q (rendered from %q): %v", rendered, src, err)
		}
		if !reflect.DeepEqual(st1, st2) {
			t.Fatalf("roundtrip AST mismatch:\n  src:      %s\n  rendered: %s\n  %#v\nvs\n  %#v",
				src, rendered, st1, st2)
		}
	}
}

func TestRenderStringEscaping(t *testing.T) {
	st, err := Parse("SELECT * FROM t WHERE a = 'plain'")
	if err != nil {
		t.Fatal(err)
	}
	if got := Render(st); got != "SELECT * FROM t WHERE a = 'plain'" {
		t.Fatalf("Render = %q", got)
	}
}

func TestRenderParamsPreserved(t *testing.T) {
	st, _ := Parse("SELECT * FROM t WHERE a = ? AND b = ? AND c = ?")
	rendered := Render(st)
	st2, err := Parse(rendered)
	if err != nil {
		t.Fatal(err)
	}
	sel := st2.(*SelectStmt)
	if !sel.Where[0].X.IsParam || sel.Where[0].X.Param != 1 {
		t.Fatalf("param 1 lost: %+v", sel.Where[0].X)
	}
	if sel.Where[2].X.Param != 3 {
		t.Fatalf("param ordinals lost: %+v", sel.Where)
	}
}
