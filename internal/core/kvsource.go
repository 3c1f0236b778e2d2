package core

import (
	"fmt"

	"cachecost/internal/storage"
	"cachecost/internal/storage/sql"
	"cachecost/internal/trace"
)

// kvRows is the KV application's storage path for one lane: the kvdata
// table (one row per key) over the lane's private storage connection. It
// is the source every tier call on the lane is handed.
type kvRows struct {
	db *storage.Client
}

// kvKit is the KV application's object: a row value, budgeted at key +
// value + per-entry overhead, and its own wire form (no decode).
var kvKit = objectKit[[]byte]{
	sizeOf: func(k string, v []byte) int64 { return int64(len(k) + len(v) + 64) },
	encode: func(v []byte) []byte { return v },
}

func (r *kvRows) load(sc trace.SpanContext, key string) ([]byte, error) {
	rs, err := r.db.QueryCtx(sc, "SELECT v FROM kvdata WHERE k = ?", sql.Text(key))
	if err != nil {
		return nil, err
	}
	if len(rs.Rows) == 0 {
		return nil, fmt.Errorf("core: no row for key %q", key)
	}
	return rs.Rows[0][0].Blob, nil
}

func (r *kvRows) version(sc trace.SpanContext, key string) (uint64, bool, error) {
	return r.db.VersionCtx(sc, "kvdata", sql.Text(key))
}

func (r *kvRows) store(sc trace.SpanContext, key string, value []byte) error {
	_, err := r.db.ExecCtx(sc, "UPDATE kvdata SET v = ? WHERE k = ?", sql.Blob(value), sql.Text(key))
	return err
}

// loadBatch is one sql.BatchQuery RPC binding the point-read template
// once per key, so storage parses, burns its front-end and validates its
// lease once for the whole batch.
func (r *kvRows) loadBatch(sc trace.SpanContext, keys []string) ([][]byte, error) {
	params := make([]sql.Value, len(keys))
	for i, k := range keys {
		params[i] = sql.Text(k)
	}
	results, err := r.db.BatchQueryCtx(sc, "SELECT v FROM kvdata WHERE k = ?", params)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(keys))
	for i, rs := range results {
		if len(rs.Rows) == 0 {
			return nil, fmt.Errorf("core: no row for key %q", keys[i])
		}
		out[i] = rs.Rows[0][0].Blob
	}
	return out, nil
}
