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

// QueryRequest is the body of the sql.Query / sql.Exec RPC methods.
// Decoded BLOB parameters alias the decoder's input: the node's handlers
// consume them before returning, and a raft log entry never changes
// (DESIGN.md, "Buffer ownership").
type QueryRequest struct {
	SQL    string
	Params []sql.Value
}

// MarshalWire implements wire.Marshaler.
func (q *QueryRequest) MarshalWire(e *wire.Encoder) {
	e.String(1, q.SQL)
	for _, p := range q.Params {
		sql.EncodeValue(e, 2, p)
	}
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
			if q.SQL, err = d.String(); err != nil {
				return err
			}
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

// VersionRequest is the body of the sql.Version RPC method: a consistency
// version check for one row (§5.5).
type VersionRequest struct {
	Table string
	PK    sql.Value
}

// MarshalWire implements wire.Marshaler.
func (v *VersionRequest) MarshalWire(e *wire.Encoder) {
	e.String(1, v.Table)
	sql.EncodeValue(e, 2, v.PK)
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
			if v.Table, err = d.String(); err != nil {
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

// replicatedCmd is the statement-based replication payload carried in the
// raft log: a SQL statement plus its bound parameters.
type replicatedCmd struct {
	SQL    string
	Params []sql.Value
}

func encodeCmd(c *replicatedCmd) []byte {
	size := 64 + len(c.SQL)
	for _, p := range c.Params {
		size += int(p.Size())
	}
	e := wire.NewEncoder(size)
	e.String(1, c.SQL)
	for _, p := range c.Params {
		sql.EncodeValue(e, 2, p)
	}
	return e.Bytes()
}

func decodeCmd(buf []byte) (*replicatedCmd, error) {
	var q QueryRequest
	if err := wire.Unmarshal(buf, &q); err != nil {
		return nil, err
	}
	return &replicatedCmd{SQL: q.SQL, Params: q.Params}, nil
}
