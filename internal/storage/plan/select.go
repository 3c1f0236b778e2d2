package plan

import (
	"fmt"

	"cachecost/internal/storage/sql"
)

// binding is one table of a SELECT's FROM/JOIN list. A joined row is one
// []sql.Value: the bound tables' columns concatenated in FROM/JOIN order,
// table b's starting at b.off. A base-table row is therefore its own
// joined row.
type binding struct {
	t   *Table
	off int
}

// bindings is a SELECT's bound tables, in FROM/JOIN order.
type bindings []binding

// lookup returns the binding of the table named name.
func (bs bindings) lookup(name string) (binding, bool) {
	for _, b := range bs {
		if b.t.Name == name {
			return b, true
		}
	}
	return binding{}, false
}

func (db *DB) execSelect(st *sql.SelectStmt, params []sql.Value) (*ResultSet, error) {
	base, err := db.cat.Lookup(st.Table)
	if err != nil {
		return nil, err
	}

	// Tables bound so far, in FROM/JOIN order.
	var bindBuf [4]binding
	bound := append(bindings(bindBuf[:0]), binding{t: base})
	width := len(base.Cols)
	for _, j := range st.Joins {
		jt, err := db.cat.Lookup(j.Table)
		if err != nil {
			return nil, err
		}
		if _, dup := bound.lookup(jt.Name); dup {
			return nil, fmt.Errorf("plan: table %q joined twice", jt.Name)
		}
		bound = append(bound, binding{t: jt, off: width})
		width += len(jt.Cols)
	}

	// Scan the base table.
	rows, err := db.scanTable(db.rows[:0], base, st.Where, params)
	db.rows = rows
	if err != nil {
		return nil, err
	}

	// Left-deep nested-loop joins, probing the join table through its
	// cheapest access path with the bound side of the ON condition.
	for ji, j := range st.Joins {
		jb := bound[ji+1]
		jt := jb.t
		boundRef, probeRef, err := orientJoin(j, jt, bound[:ji+1])
		if err != nil {
			return nil, err
		}
		probeCol := jt.ColIndex(probeRef.Column)
		if probeCol < 0 {
			return nil, fmt.Errorf("plan: no column %q in table %q", probeRef.Column, jt.Name)
		}
		bb, _ := bound.lookup(boundRef.Table)
		boundCol := bb.t.ColIndex(boundRef.Column)
		if boundCol < 0 {
			return nil, fmt.Errorf("plan: no column %q in table %q", boundRef.Column, bb.t.Name)
		}

		var next [][]sql.Value
		for _, row := range rows {
			bv := row[bb.off+boundCol]
			if bv.IsNull() {
				continue // NULL never joins
			}
			// Probe with the join equality plus the user's predicates on
			// the join table.
			probePreds := append([]sql.Pred{{
				Col: sql.ColRef{Table: jt.Name, Column: probeRef.Column},
				X:   sql.Expr{Value: bv},
			}}, predsForTable(st.Where, jt)...)
			matches, err := db.scanTable(nil, jt, probePreds, params)
			if err != nil {
				return nil, err
			}
			for _, m := range matches {
				nr := make([]sql.Value, jb.off+len(m))
				copy(nr, row)
				copy(nr[jb.off:], m)
				next = append(next, nr)
			}
		}
		rows = next
	}

	// Projection schema: the result's columns, appended to the DB's.
	var projBuf [8]int
	c0 := len(db.outCols)
	proj, cols, err := projection(projBuf[:0], db.outCols, st, bound)
	if err != nil {
		return nil, err
	}
	db.outCols = cols

	// Project the joined rows into the result.
	db.res = ResultSet{Cols: cols[c0:len(cols):len(cols)]}
	if len(rows) == 0 {
		return &db.res, nil
	}
	// The result's rows share the DB's value array, each clipped to its
	// width; they are sliced once every value is in place.
	v0, r0, w := len(db.outVals), len(db.outRows), len(proj)
	for _, row := range rows {
		for _, off := range proj {
			db.outVals = append(db.outVals, row[off])
		}
	}
	for i := range rows {
		at := v0 + i*w
		db.outRows = append(db.outRows, db.outVals[at:at+w:at+w])
	}
	db.res.Rows = db.outRows[r0:len(db.outRows):len(db.outRows)]
	return &db.res, nil
}

// orientJoin determines which side of "ON a = b" refers to an
// already-bound table (the bound side) and which to the table being
// joined (the probe side).
func orientJoin(j sql.Join, jt *Table, boundTables bindings) (bound, probe sql.ColRef, err error) {
	isBound := func(ref sql.ColRef) bool {
		if ref.Table == jt.Name {
			return false
		}
		if ref.Table != "" {
			_, ok := boundTables.lookup(ref.Table)
			return ok
		}
		// Unqualified: bound if exactly resolvable in a bound table.
		for _, b := range boundTables {
			if b.t.ColIndex(ref.Column) >= 0 {
				return true
			}
		}
		return false
	}
	qualify := func(ref sql.ColRef, preferJoin bool) (sql.ColRef, error) {
		if ref.Table != "" {
			return ref, nil
		}
		if preferJoin {
			if jt.ColIndex(ref.Column) >= 0 {
				return sql.ColRef{Table: jt.Name, Column: ref.Column}, nil
			}
		}
		for _, b := range boundTables {
			if b.t.ColIndex(ref.Column) >= 0 {
				return sql.ColRef{Table: b.t.Name, Column: ref.Column}, nil
			}
		}
		return ref, fmt.Errorf("plan: cannot resolve column %q in join", ref.Column)
	}

	lb, rb := isBound(j.Left), isBound(j.Right)
	switch {
	case lb && !rb:
		bound, err = qualify(j.Left, false)
		if err != nil {
			return
		}
		probe, err = qualify(j.Right, true)
		return
	case rb && !lb:
		bound, err = qualify(j.Right, false)
		if err != nil {
			return
		}
		probe, err = qualify(j.Left, true)
		return
	default:
		err = fmt.Errorf("plan: join ON %s = %s must relate a bound table to %q",
			j.Left, j.Right, jt.Name)
		return
	}
}

// predsForTable returns the WHERE conjuncts that name table t explicitly.
// (Unqualified predicates are bound to the base table by scanTable.)
func predsForTable(preds []sql.Pred, t *Table) []sql.Pred {
	var out []sql.Pred
	for _, p := range preds {
		if p.Col.Table == t.Name {
			out = append(out, p)
		}
	}
	return out
}

// projection resolves the SELECT list into joined-row offsets, appended to
// proj, and output column names, appended to cols. Star expands to every
// column of every table in order; names are qualified when more than one
// table is involved.
func projection(proj []int, cols []string, st *sql.SelectStmt, bound bindings) ([]int, []string, error) {
	multi := len(bound) > 1
	name := func(t *Table, col string) string {
		if multi {
			return t.Name + "." + col
		}
		return col
	}
	if st.Star {
		for _, b := range bound {
			for i, c := range b.t.Cols {
				proj = append(proj, b.off+i)
				cols = append(cols, name(b.t, c.Name))
			}
		}
		return proj, cols, nil
	}
	for _, ref := range st.Cols {
		b, ci, err := resolveRef(ref, bound)
		if err != nil {
			return nil, nil, err
		}
		proj = append(proj, b.off+ci)
		cols = append(cols, name(b.t, b.t.Cols[ci].Name))
	}
	return proj, cols, nil
}

// resolveRef finds the bound table and column position for a column
// reference.
func resolveRef(ref sql.ColRef, bound bindings) (binding, int, error) {
	if ref.Table != "" {
		b, ok := bound.lookup(ref.Table)
		if !ok {
			return b, 0, fmt.Errorf("plan: table %q is not in the FROM clause", ref.Table)
		}
		ci := b.t.ColIndex(ref.Column)
		if ci < 0 {
			return b, 0, fmt.Errorf("plan: no column %q in table %q", ref.Column, ref.Table)
		}
		return b, ci, nil
	}
	for _, b := range bound {
		if ci := b.t.ColIndex(ref.Column); ci >= 0 {
			return b, ci, nil
		}
	}
	return binding{}, 0, fmt.Errorf("plan: unknown column %q", ref.Column)
}
