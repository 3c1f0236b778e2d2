package sql

import "strings"

// Stmt is any parsed statement.
type Stmt interface {
	stmt()
}

// ColRef names a column, optionally qualified by table.
type ColRef struct {
	Table  string // optional
	Column string
}

// String renders the reference as written.
func (c ColRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// Expr is a literal value or a parameter placeholder.
type Expr struct {
	Param   int   // 1-based parameter ordinal when IsParam
	Value   Value // literal when !IsParam
	IsParam bool
}

// Pred is one conjunct of a WHERE clause: col = expr.
type Pred struct {
	Col ColRef
	X   Expr
}

// Join is one INNER JOIN clause: JOIN Table ON Left = Right.
type Join struct {
	Table string
	Left  ColRef
	Right ColRef
}

// SelectStmt is a SELECT.
type SelectStmt struct {
	Star  bool
	Cols  []ColRef
	Table string
	Joins []Join
	Where []Pred // conjunction
}

func (*SelectStmt) stmt() {}

// InsertStmt is an INSERT of one or more rows.
type InsertStmt struct {
	Table string
	Cols  []string
	Rows  [][]Expr
}

func (*InsertStmt) stmt() {}

// UpdateStmt is an UPDATE.
type UpdateStmt struct {
	Table string
	Set   []Assign
	Where []Pred
}

func (*UpdateStmt) stmt() {}

// Assign is one SET column = expr.
type Assign struct {
	Column string
	X      Expr
}

// ColDef defines one column of a CREATE TABLE.
type ColDef struct {
	Name       string
	Kind       Kind
	PrimaryKey bool
}

// CreateTableStmt is a CREATE TABLE.
type CreateTableStmt struct {
	Table       string
	Cols        []ColDef
	IfNotExists bool
}

func (*CreateTableStmt) stmt() {}

// CreateIndexStmt is a CREATE INDEX on a single column.
type CreateIndexStmt struct {
	Name        string
	Table       string
	Column      string
	IfNotExists bool
}

func (*CreateIndexStmt) stmt() {}

// normalizeIdent lowercases identifiers: the engine is case-insensitive
// for table and column names, like most SQL engines.
func normalizeIdent(s string) string { return strings.ToLower(s) }
