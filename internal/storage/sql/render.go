package sql

import (
	"fmt"
	"strings"
)

// Render prints a parsed statement back as SQL. The output reparses to an
// equivalent AST (a property the tests enforce), which makes it usable
// for statement logging, plan-cache keys, and the statement-based
// replication log's human-readable form.
func Render(st Stmt) string {
	var b strings.Builder
	switch s := st.(type) {
	case *SelectStmt:
		renderSelect(&b, s)
	case *InsertStmt:
		renderInsert(&b, s)
	case *UpdateStmt:
		renderUpdate(&b, s)
	case *DeleteStmt:
		renderDelete(&b, s)
	case *CreateTableStmt:
		renderCreateTable(&b, s)
	case *CreateIndexStmt:
		renderCreateIndex(&b, s)
	default:
		fmt.Fprintf(&b, "/* unrenderable %T */", st)
	}
	return b.String()
}

func renderSelect(b *strings.Builder, s *SelectStmt) {
	b.WriteString("SELECT ")
	if s.Star {
		b.WriteString("*")
	} else {
		for i, c := range s.Cols {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.String())
		}
	}
	b.WriteString(" FROM ")
	b.WriteString(s.Table)
	for _, j := range s.Joins {
		fmt.Fprintf(b, " JOIN %s ON %s = %s", j.Table, j.Left, j.Right)
	}
	renderWhere(b, s.Where)
	if s.OrderBy != nil {
		fmt.Fprintf(b, " ORDER BY %s", s.OrderBy.Col)
		if s.OrderBy.Desc {
			b.WriteString(" DESC")
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(b, " LIMIT %d", s.Limit)
	}
}

func renderWhere(b *strings.Builder, preds []Pred) {
	for i, p := range preds {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		if p.Op == OpIn {
			fmt.Fprintf(b, "%s IN (", p.Col)
			for j, x := range p.List {
				if j > 0 {
					b.WriteString(", ")
				}
				b.WriteString(renderExpr(x))
			}
			b.WriteString(")")
			continue
		}
		fmt.Fprintf(b, "%s %s %s", p.Col, p.Op, renderExpr(p.X))
	}
}

// renderExpr prints x as a literal that lexes back to the same value: a
// quote inside text is doubled, and a float keeps a decimal point or
// exponent so it does not come back as an INT.
func renderExpr(x Expr) string {
	switch {
	case x.IsParam:
		return "?"
	case x.Value.Kind == KindText:
		return "'" + strings.ReplaceAll(x.Value.Str, "'", "''") + "'"
	case x.Value.Kind == KindFloat:
		s := x.Value.String()
		if !strings.ContainsAny(s, ".eEIN") { // Inf and NaN never parse
			s += ".0"
		}
		return s
	default:
		return x.Value.String()
	}
}

func renderInsert(b *strings.Builder, s *InsertStmt) {
	fmt.Fprintf(b, "INSERT INTO %s (%s) VALUES ", s.Table, strings.Join(s.Cols, ", "))
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
}

func renderUpdate(b *strings.Builder, s *UpdateStmt) {
	fmt.Fprintf(b, "UPDATE %s SET ", s.Table)
	for i, a := range s.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "%s = %s", a.Column, renderExpr(a.X))
	}
	renderWhere(b, s.Where)
}

func renderDelete(b *strings.Builder, s *DeleteStmt) {
	fmt.Fprintf(b, "DELETE FROM %s", s.Table)
	renderWhere(b, s.Where)
}

func renderCreateTable(b *strings.Builder, s *CreateTableStmt) {
	b.WriteString("CREATE TABLE ")
	if s.IfNotExists {
		b.WriteString("IF NOT EXISTS ")
	}
	fmt.Fprintf(b, "%s (", s.Table)
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "%s %s", c.Name, c.Kind)
		if c.PrimaryKey {
			b.WriteString(" PRIMARY KEY")
		}
	}
	b.WriteString(")")
}

func renderCreateIndex(b *strings.Builder, s *CreateIndexStmt) {
	b.WriteString("CREATE INDEX ")
	if s.IfNotExists {
		b.WriteString("IF NOT EXISTS ")
	}
	fmt.Fprintf(b, "%s ON %s (%s)", s.Name, s.Table, s.Column)
}
