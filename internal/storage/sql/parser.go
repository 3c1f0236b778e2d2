package sql

import (
	"fmt"
	"strconv"

	"cachecost/internal/freelist"
)

// ParseError reports a syntax error with position context.
type ParseError struct {
	Pos int
	Msg string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	return fmt.Sprintf("sql: parse error at byte %d: %s", e.Pos, e.Msg)
}

// Parse parses one SQL statement. A trailing semicolon is allowed.
//
// The parser and its token buffer come from a pool, so a statement costs
// the AST it returns and nothing else. No AST node points into the token
// buffer: names and literals are strings (substrings of src), and every
// slice is the AST's own.
func Parse(src string) (Stmt, error) { return parse(src, nil) }

// Scratch is the reusable AST of one statement at a time. A caller that
// parses statement after statement — a storage node's request — parses
// into its own Scratch, and a SELECT or UPDATE
// then reuses the Scratch's statement node and slices instead of
// allocating them. The zero value is ready to use.
//
// The AST Scratch.Parse returns is valid until the next Parse into the
// same Scratch or Reset; nothing else ever writes it. Other statements
// parse as with Parse.
type Scratch struct {
	sel   SelectStmt
	upd   UpdateStmt
	cols  []ColRef
	joins []Join
	set   []Assign
	where []Pred
}

// Parse parses src into s, like Parse.
func (s *Scratch) Parse(src string) (Stmt, error) { return parse(src, s) }

// Reset zeroes the last statement parsed into s, so no name or literal
// of it outlives the statement, and keeps the slices' arrays. It zeroes
// them to their capacity: a parse that failed part way may have written
// past the lengths the Scratch recorded.
func (s *Scratch) Reset() {
	clear(s.cols[:cap(s.cols)])
	clear(s.joins[:cap(s.joins)])
	clear(s.set[:cap(s.set)])
	clear(s.where[:cap(s.where)])
	*s = Scratch{cols: s.cols[:0], joins: s.joins[:0], set: s.set[:0], where: s.where[:0]}
}

func parse(src string, sc *Scratch) (Stmt, error) {
	p := parserPool.Get()
	defer p.release()
	p.sc = sc
	if sc != nil {
		sc.Reset()
	}
	toks, err := lex(p.toks[:0], src)
	p.toks = toks
	if err != nil {
		return nil, err
	}
	stmt, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	// Optional trailing semicolon, then EOF.
	if p.peek().kind == tokPunct && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected %s after statement", p.peek())
	}
	return stmt, nil
}

// parser is one statement's parse state.
type parser struct {
	toks   []token
	i      int
	params int      // ? placeholders numbered so far, left to right
	sc     *Scratch // the caller's statement scratch, or nil
}

var parserPool = freelist.List[*parser]{New: func() *parser { return new(parser) }}

// maxPooledTokens bounds the token buffer a pooled parser keeps: a bulk
// INSERT's buffer is dropped rather than held for point statements.
const maxPooledTokens = 1024

// release returns p to the pool, dropping its references into the
// statement text.
func (p *parser) release() {
	if cap(p.toks) > maxPooledTokens {
		return
	}
	clear(p.toks)
	p.toks, p.i, p.params, p.sc = p.toks[:0], 0, 0, nil
	parserPool.Put(p)
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Pos: p.peek().pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokKeyword || t.text != kw {
		return &ParseError{Pos: t.pos, Msg: fmt.Sprintf("expected %s, got %s", kw, t)}
	}
	return nil
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peek().kind == tokKeyword && p.peek().text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	t := p.next()
	if t.kind != tokPunct || t.text != s {
		return &ParseError{Pos: t.pos, Msg: fmt.Sprintf("expected %q, got %s", s, t)}
	}
	return nil
}

func (p *parser) acceptPunct(s string) bool {
	if p.peek().kind == tokPunct && p.peek().text == s {
		p.next()
		return true
	}
	return false
}

func (p *parser) ident() (string, error) {
	t := p.next()
	if t.kind != tokIdent {
		return "", &ParseError{Pos: t.pos, Msg: fmt.Sprintf("expected identifier, got %s", t)}
	}
	return normalizeIdent(t.text), nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errf("expected statement keyword, got %s", t)
	}
	switch t.text {
	case "SELECT":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "CREATE":
		return p.parseCreate()
	default:
		return nil, p.errf("unsupported statement %s", t)
	}
}

func (p *parser) parseColRef() (ColRef, error) {
	first, err := p.ident()
	if err != nil {
		return ColRef{}, err
	}
	if p.acceptPunct(".") {
		col, err := p.ident()
		if err != nil {
			return ColRef{}, err
		}
		return ColRef{Table: first, Column: col}, nil
	}
	return ColRef{Column: first}, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	p.next() // SELECT
	var s *SelectStmt
	var cols []ColRef
	var joins []Join
	if p.sc != nil {
		s, cols, joins = &p.sc.sel, p.sc.cols, p.sc.joins
	} else {
		s = new(SelectStmt)
	}
	if p.acceptPunct("*") {
		s.Star = true
	} else {
		for {
			c, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			cols = append(cols, c)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	s.Table = table

	for p.acceptKeyword("JOIN") {
		jt, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		left, err := p.parseColRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		right, err := p.parseColRef()
		if err != nil {
			return nil, err
		}
		joins = append(joins, Join{Table: jt, Left: left, Right: right})
	}
	s.Cols, s.Joins = used(cols), used(joins)
	if p.sc != nil {
		p.sc.cols, p.sc.joins = cols, joins
	}

	if p.acceptKeyword("WHERE") {
		preds, err := p.parseWhere()
		if err != nil {
			return nil, err
		}
		s.Where = preds
	}
	return s, nil
}

func (p *parser) parseWhere() ([]Pred, error) {
	var preds []Pred
	if p.sc != nil {
		preds = p.sc.where
	}
	for {
		pred, err := p.parsePred()
		if err != nil {
			return nil, err
		}
		preds = append(preds, pred)
		if !p.acceptKeyword("AND") {
			break
		}
	}
	if p.sc != nil {
		p.sc.where = preds
	}
	return preds, nil
}

// used returns s as an AST field: nil when empty, as a parse without a
// Scratch leaves it, so the two parses give equal ASTs.
func used[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

func (p *parser) parsePred() (Pred, error) {
	col, err := p.parseColRef()
	if err != nil {
		return Pred{}, err
	}
	if err := p.expectPunct("="); err != nil {
		return Pred{}, err
	}
	x, err := p.parseExpr()
	if err != nil {
		return Pred{}, err
	}
	return Pred{Col: col, X: x}, nil
}

func (p *parser) parseExpr() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokPunct && t.text == "?":
		p.next()
		p.params++
		return Expr{IsParam: true, Param: p.params}, nil
	case t.kind == tokNumber:
		p.next()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return Expr{}, &ParseError{Pos: t.pos, Msg: "invalid integer"}
		}
		return Expr{Value: Int64(n)}, nil
	case t.kind == tokString:
		p.next()
		return Expr{Value: Text(t.text)}, nil
	case t.kind == tokKeyword && t.text == "NULL":
		p.next()
		return Expr{Value: Null()}, nil
	default:
		return Expr{}, &ParseError{Pos: t.pos, Msg: fmt.Sprintf("expected literal or parameter, got %s", t)}
	}
}

func (p *parser) parseInsert() (*InsertStmt, error) {
	p.next() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: table}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Cols = append(st.Cols, col)
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, x)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if len(row) != len(st.Cols) {
			return nil, p.errf("row has %d values for %d columns", len(row), len(st.Cols))
		}
		st.Rows = append(st.Rows, row)
		if !p.acceptPunct(",") {
			break
		}
	}
	return st, nil
}

func (p *parser) parseUpdate() (*UpdateStmt, error) {
	p.next() // UPDATE
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	var st *UpdateStmt
	var set []Assign
	if p.sc != nil {
		st, set = &p.sc.upd, p.sc.set
	} else {
		st = new(UpdateStmt)
	}
	st.Table = table
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		set = append(set, Assign{Column: col, X: x})
		if !p.acceptPunct(",") {
			break
		}
	}
	st.Set = set
	if p.sc != nil {
		p.sc.set = set
	}
	if p.acceptKeyword("WHERE") {
		preds, err := p.parseWhere()
		if err != nil {
			return nil, err
		}
		st.Where = preds
	}
	return st, nil
}

func (p *parser) parseCreate() (Stmt, error) {
	p.next() // CREATE
	switch {
	case p.acceptKeyword("TABLE"):
		return p.parseCreateTable()
	case p.acceptKeyword("INDEX"):
		return p.parseCreateIndex()
	default:
		return nil, p.errf("expected TABLE or INDEX after CREATE")
	}
}

func (p *parser) parseIfNotExists() (bool, error) {
	if !p.acceptKeyword("IF") {
		return false, nil
	}
	if !p.acceptKeyword("NOT") {
		return false, p.errf("expected NOT after IF")
	}
	if !p.acceptKeyword("EXISTS") {
		return false, p.errf("expected EXISTS after IF NOT")
	}
	return true, nil
}

func (p *parser) parseCreateTable() (*CreateTableStmt, error) {
	ifNotExists, err := p.parseIfNotExists()
	if err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &CreateTableStmt{Table: table, IfNotExists: ifNotExists}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		kt := p.next()
		if kt.kind != tokKeyword {
			return nil, &ParseError{Pos: kt.pos, Msg: fmt.Sprintf("expected column type, got %s", kt)}
		}
		var kind Kind
		switch kt.text {
		case "INT":
			kind = KindInt
		case "TEXT":
			kind = KindText
		case "BLOB":
			kind = KindBlob
		default:
			return nil, &ParseError{Pos: kt.pos, Msg: fmt.Sprintf("unknown column type %s", kt)}
		}
		def := ColDef{Name: name, Kind: kind}
		if p.acceptKeyword("PRIMARY") {
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			def.PrimaryKey = true
		}
		st.Cols = append(st.Cols, def)
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) parseCreateIndex() (*CreateIndexStmt, error) {
	ifNotExists, err := p.parseIfNotExists()
	if err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	col, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return &CreateIndexStmt{Name: name, Table: table, Column: col, IfNotExists: ifNotExists}, nil
}
