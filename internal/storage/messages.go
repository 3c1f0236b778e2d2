// Package storage assembles the mini distributed database: the SQL
// front-end (internal/storage/sql), planner/executor (internal/storage/plan),
// paged KV engine with block cache (internal/storage/kv) and Raft
// replication with leader leases (internal/storage/raft), exposed behind
// the RPC layer. It plays the role of TiDB+TiKV in the paper's testbed
// (§5.1): 3 replicas by default, block caches on the storage nodes, SQL in,
// rows out.
package storage

import (
	"cachecost/internal/storage/sql"
	"cachecost/internal/wire"
)

// QueryRequest is the body of the sql.Query / sql.Exec RPC methods, as
// the node decodes it: in place, into the one request it reuses for
// every statement (Node.parseStatement). Params keeps its array, and the
// text comes from the node's table. Decoded TEXT and BLOB parameters
// alias the decoder's input: the node's handlers consume them before
// returning (DESIGN.md, "Buffer ownership").
type QueryRequest struct {
	SQL    string
	Params []sql.Value

	// texts supplies the statement text on decode.
	texts stmtTexts
	// stmt is the owner's statement scratch: SQL is parsed into it, and
	// the AST is the owner's until reset.
	stmt sql.Scratch
}

// UnmarshalWire implements wire.Unmarshaler.
func (q *QueryRequest) UnmarshalWire(d *wire.Decoder) error {
	for !d.Done() {
		f, t, err := d.Next()
		if err != nil {
			return err
		}
		switch f {
		case 1:
			b, err := d.Bytes()
			if err != nil {
				return err
			}
			q.SQL = q.texts.intern(b)
		case 2:
			body, err := d.Bytes()
			if err != nil {
				return err
			}
			v, err := sql.AliasValue(body)
			if err != nil {
				return err
			}
			q.Params = append(q.Params, v)
		default:
			if err := d.Skip(t); err != nil {
				return err
			}
		}
	}
	return nil
}

// reset empties q for reuse, zeroing the Params and the AST it held so no
// alias of a finished request, and no piece of its statement, outlives
// its handler.
func (q *QueryRequest) reset() {
	clear(q.Params)
	q.SQL, q.Params = "", q.Params[:0]
	q.stmt.Reset()
}

// stmtTexts interns statement texts. A node serves a handful of distinct
// statements, so a known text decodes without allocating. The text cannot
// alias the request buffer instead: CREATE TABLE keeps names that are
// substrings of it. Past maxStmtTexts entries each new text is copied, as
// without a table.
type stmtTexts map[string]string

// maxStmtTexts bounds a node's text table.
const maxStmtTexts = 64

func (t stmtTexts) intern(b []byte) string {
	if s, ok := t[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(t) < maxStmtTexts {
		t[s] = s
	}
	return s
}

// VersionRequest is the body of the sql.Version RPC method: a consistency
// version check for one row (§5.5). Decoded, its table name and a TEXT or
// BLOB key alias the request, which the handler consumes before it
// returns.
type VersionRequest struct {
	Table string
	PK    sql.Value
}

// UnmarshalWire implements wire.Unmarshaler.
func (v *VersionRequest) UnmarshalWire(d *wire.Decoder) error {
	for !d.Done() {
		f, t, err := d.Next()
		if err != nil {
			return err
		}
		switch f {
		case 1:
			if v.Table, err = d.StringZC(); err != nil {
				return err
			}
		case 2:
			body, err := d.Bytes()
			if err != nil {
				return err
			}
			if v.PK, err = sql.AliasValue(body); err != nil {
				return err
			}
		default:
			if err := d.Skip(t); err != nil {
				return err
			}
		}
	}
	return nil
}

// VersionResponse is the body of the sql.Version reply.
type VersionResponse struct {
	Found   bool
	Version uint64
}

// MarshalWire implements wire.Marshaler.
func (v *VersionResponse) MarshalWire(e *wire.Encoder) {
	e.Bool(1, v.Found)
	e.Uint64(2, v.Version)
}

// UnmarshalWire implements wire.Unmarshaler.
func (v *VersionResponse) UnmarshalWire(d *wire.Decoder) error {
	for !d.Done() {
		f, t, err := d.Next()
		if err != nil {
			return err
		}
		switch f {
		case 1:
			if v.Found, err = d.Bool(); err != nil {
				return err
			}
		case 2:
			if v.Version, err = d.Uint64(); err != nil {
				return err
			}
		default:
			if err := d.Skip(t); err != nil {
				return err
			}
		}
	}
	return nil
}
