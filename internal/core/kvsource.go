package core

import (
	"bytes"
	"fmt"

	"cachecost/internal/rpc"
	"cachecost/internal/storage"
	"cachecost/internal/storage/sql"
	"cachecost/internal/trace"
	"cachecost/internal/wire"
)

// kvRows is the KV application's storage path for one lane: the kvdata
// table (one row per key) over the lane's private storage connection. It
// is the source every tier call on the lane is handed.
type kvRows struct {
	db *storage.Client
}

// kvApp is the KV application's port into the front door. Its object is
// a row value, budgeted at key + value + per-entry overhead and its own
// wire form (no decode); a read answers the value's digest; a write's
// payload is the whole row.
var kvApp = application[[]byte]{
	kit: objectKit[[]byte]{
		sizeOf: func(k string, v []byte) int64 { return int64(len(k) + len(v) + 64) },
		encode: func(v []byte) []byte { return v },
		keep:   bytes.Clone,
	},
	source: func(db *storage.Client) source[[]byte] { return &kvRows{db: db} },
	answer: func(e *wire.Encoder, v []byte) int {
		var dig [16]byte // stays on the stack: the digest is encoded in place
		e.BytesField(2, appendDigest(dig[:0], v))
		return len(v)
	},
	object: func(payload []byte) []byte { return append([]byte(nil), payload...) },
}

// load reads key's row value. It is lent from the storage response,
// which travels up as held (source.load).
func (r *kvRows) load(sc trace.SpanContext, key string) ([]byte, []byte, error) {
	rs, err := r.db.QueryCtx(sc, "SELECT v FROM kvdata WHERE k = ?", sql.Text(key))
	if err != nil {
		return nil, nil, err
	}
	if len(rs.Rows) == 0 {
		rs.Release()
		return nil, nil, fmt.Errorf("core: no row for key %q", key)
	}
	v := rs.Rows[0][0].Blob
	return v, rs.Detach(), nil
}

func (r *kvRows) version(sc trace.SpanContext, key string) (uint64, error) {
	ver, _, err := r.db.VersionCtx(sc, "kvdata", sql.Text(key))
	return ver, err
}

func (r *kvRows) store(sc trace.SpanContext, key string, value []byte) error {
	_, err := r.db.ExecCtx(sc, "UPDATE kvdata SET v = ? WHERE k = ?", sql.Blob(value), sql.Text(key))
	return err
}

// loadBatch is one sql.BatchQuery RPC binding the point-read template
// once per key, so storage parses, burns its front-end and validates its
// lease once for the whole batch. The values are lent from the one
// response, which travels up as held.
func (r *kvRows) loadBatch(sc trace.SpanContext, keys []string) ([][]byte, []byte, error) {
	params := make([]sql.Value, len(keys))
	for i, k := range keys {
		params[i] = sql.Text(k)
	}
	resp, err := r.db.BatchQueryCtx(sc, "SELECT v FROM kvdata WHERE k = ?", params)
	if err != nil {
		return nil, nil, err
	}
	out := make([][]byte, len(keys))
	for i, rs := range resp.Results {
		if len(rs.Rows) == 0 {
			rpc.PutBuffer(resp.Detach())
			return nil, nil, fmt.Errorf("core: no row for key %q", keys[i])
		}
		out[i] = rs.Rows[0][0].Blob
	}
	return out, resp.Detach(), nil
}
