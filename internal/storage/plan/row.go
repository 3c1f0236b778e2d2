package plan

import (
	"fmt"

	"cachecost/internal/freelist"
	"cachecost/internal/rpc"
	"cachecost/internal/storage/sql"
	"cachecost/internal/wire"
)

// Key layout in the underlying kv store:
//
//	t/<table>/<pk-bytes>                     -> encoded row
//	x/<table>/<index>/<val-bytes>/<pk-bytes> -> empty
//
// Length-prefixing of the variable segments keeps ranges unambiguous.

// rowKey appends table's key for pk to dst. The point lookup passes a
// stack array, so reading one row builds its key without allocating.
func rowKey(dst []byte, table string, pk sql.Value) []byte {
	dst = append(dst, 't', '/')
	dst = append(dst, table...)
	dst = append(dst, '/')
	return pk.AppendKeyBytes(dst)
}

func tablePrefix(table string) []byte {
	return []byte("t/" + table + "/")
}

func indexKey(table, index string, val, pk sql.Value) []byte {
	return pk.AppendKeyBytes(indexValPrefix(table, index, val))
}

// indexValPrefix covers every index entry for one (table,index,value).
func indexValPrefix(table, index string, val sql.Value) []byte {
	vb := val.KeyBytes()
	k := make([]byte, 0, len(table)+len(index)+len(vb)+24)
	k = append(k, 'x', '/')
	k = append(k, table...)
	k = append(k, '/')
	k = append(k, index...)
	k = append(k, '/')
	k = wire.AppendUvarint(k, uint64(len(vb)))
	k = append(k, vb...)
	k = append(k, '/')
	return k
}

// prefixEnd returns the smallest key greater than every key starting with
// prefix, for use as a Scan upper bound.
func prefixEnd(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] < 0xff {
			end[i]++
			return end[:i+1]
		}
	}
	return nil // prefix is all 0xff: no upper bound
}

// encodeRow returns the encoding of vals (one per table column, in
// schema order) in a buffer of the row's own, sized so the encode never
// grows it: the row every replica's store keeps (DB.put).
func encodeRow(vals []sql.Value) []byte {
	size := 16
	for _, v := range vals {
		size += int(v.Size())
	}
	return wire.Append(make([]byte, 0, size), func(e *wire.Encoder) {
		for i, v := range vals {
			sql.EncodeValue(e, uint32(i+1), v)
		}
	})
}

// decodeRow parses an encoded row into vals, one per column (missing
// columns stay NULL). TEXTs and BLOBs alias buf: the row the store lent,
// which it never rewrites, or a Scan's private copy.
func decodeRow(vals []sql.Value, buf []byte) error {
	d := wire.NewDecoder(buf)
	for !d.Done() {
		f, t, err := d.Next()
		if err != nil {
			return err
		}
		if t != wire.TBytes || int(f) < 1 || int(f) > len(vals) {
			if err := d.Skip(t); err != nil {
				return err
			}
			continue
		}
		body, err := d.Bytes()
		if err != nil {
			return err
		}
		v, err := sql.AliasValue(body)
		if err != nil {
			return err
		}
		vals[f-1] = v
	}
	return nil
}

// ResultSet is the output of a statement: column names (qualified as
// "table.col" for joins) and rows of values. Writes report RowsAffected
// with no columns.
//
// A decoded set borrows: its column names, TEXTs and BLOBs alias the
// buffer it was decoded from (UnmarshalWire), and decoding into a set
// again reuses its arrays. A set Borrow returned also holds that buffer
// until Release.
type ResultSet struct {
	Cols         []string
	Rows         [][]sql.Value
	RowsAffected int64

	// A decoded set's scratch, kept from decode to decode: the arrays
	// Cols, Rows and the rows' values are built in.
	cols []string
	rows [][]sql.Value
	vals []sql.Value
	// held is the transport buffer a borrowed set aliases; pooled marks a
	// set Borrow handed out, the only kind Release recycles.
	held   []byte
	pooled bool
}

// MarshalWire implements wire.Marshaler.
func (r *ResultSet) MarshalWire(e *wire.Encoder) {
	for _, c := range r.Cols {
		e.String(1, c)
	}
	for _, row := range r.Rows {
		e.Message(2, func(sub *wire.Encoder) {
			for i, v := range row {
				sql.EncodeValue(sub, uint32(i+1), v)
			}
		})
	}
	e.Int64(3, r.RowsAffected)
}

// UnmarshalWire implements wire.Unmarshaler. It replaces what r held
// and borrows from the decoder's input: column names, TEXTs and BLOBs
// alias it, so r is valid only while the input is. An empty Cols or Rows
// decodes as nil, so a reused set reads exactly as a fresh one.
func (r *ResultSet) UnmarshalWire(d *wire.Decoder) error {
	r.reset()
	for !d.Done() {
		f, t, err := d.Next()
		if err != nil {
			return err
		}
		switch f {
		case 1:
			c, err := d.StringZC()
			if err != nil {
				return err
			}
			r.cols = append(r.cols, c)
		case 2:
			body, err := d.Bytes()
			if err != nil {
				return err
			}
			row, err := r.decodeRow(body)
			if err != nil {
				return err
			}
			r.rows = append(r.rows, row)
		case 3:
			if r.RowsAffected, err = d.Int64(); err != nil {
				return err
			}
		default:
			if err := d.Skip(t); err != nil {
				return err
			}
		}
	}
	if len(r.cols) > 0 {
		r.Cols = r.cols
	}
	if len(r.rows) > 0 {
		r.Rows = r.rows
	}
	for _, row := range r.Rows {
		if len(row) != len(r.Cols) && len(r.Cols) > 0 {
			return fmt.Errorf("plan: result row has %d values for %d columns", len(row), len(r.Cols))
		}
	}
	return nil
}

// decodeRow appends one encoded result row's values to r.vals, a NULL
// for each field the row skips, and returns them as the row, clipped to
// its width. A row decoded earlier keeps the array it was sliced from
// when r.vals grows.
func (r *ResultSet) decodeRow(buf []byte) ([]sql.Value, error) {
	at := len(r.vals)
	d := wire.NewDecoder(buf)
	for !d.Done() {
		f, t, err := d.Next()
		if err != nil {
			return nil, err
		}
		if t != wire.TBytes {
			if err := d.Skip(t); err != nil {
				return nil, err
			}
			continue
		}
		body, err := d.Bytes()
		if err != nil {
			return nil, err
		}
		v, err := sql.AliasValue(body)
		if err != nil {
			return nil, err
		}
		for int(f)-1 > len(r.vals)-at {
			r.vals = append(r.vals, sql.Null())
		}
		r.vals = append(r.vals, v)
	}
	return r.vals[at:len(r.vals):len(r.vals)], nil
}

// reset empties r for a decode, keeping its arrays; their contents are
// zeroed so nothing of the last decode stays reachable through them.
func (r *ResultSet) reset() {
	clear(r.cols)
	clear(r.rows)
	clear(r.vals)
	r.cols, r.rows, r.vals = r.cols[:0], r.rows[:0], r.vals[:0]
	r.Cols, r.Rows, r.RowsAffected, r.held = nil, nil, 0, nil
}

// sets recycles the ResultSets Borrow hands out.
var sets = freelist.List[*ResultSet]{New: func() *ResultSet { return &ResultSet{pooled: true} }}

// Borrow decodes buf, a transport-pool response, into a pooled set that
// aliases it (UnmarshalWire) and holds it: Release recycles both. On a
// decode error both are recycled at once.
func Borrow(buf []byte) (*ResultSet, error) {
	r := sets.Get()
	err := wire.Unmarshal(buf, r)
	r.held = buf
	if err != nil {
		r.Release()
		return nil, err
	}
	return r, nil
}

// Release recycles a set Borrow returned and the response it aliases:
// neither it nor any value read from it may be used afterwards. Call it
// at most once. On any other set — a DB's result, a batch's — it does
// nothing; a borrowed set never released is only lost to reuse.
func (r *ResultSet) Release() { rpc.PutBuffer(r.Detach()) }

// Detach is Release for a caller that keeps reading values taken from
// the set: it recycles the set but hands back the response those values
// alias, for the caller to pass to rpc.PutBuffer once done with them.
func (r *ResultSet) Detach() (held []byte) {
	if !r.pooled {
		return nil
	}
	held = r.held
	r.Reset()
	sets.Put(r)
	return held
}

// Reset empties r for reuse, as a decode into it would, and drops its
// arrays once they outgrow maxKeptVals: nothing of what r held stays
// reachable through it, and a rare large result is not kept. Detach does
// it to a set Borrow returned; a recycled batch response, to each of its
// sets.
func (r *ResultSet) Reset() {
	r.reset()
	if cap(r.vals) > maxKeptVals {
		r.cols, r.rows, r.vals = nil, nil, nil
	}
}

// RowsAffected decodes only a write's row count from an encoded
// ResultSet: a write's result has no columns and no rows to build.
func RowsAffected(buf []byte) (n int64, err error) {
	err = wire.Decode(buf, func(d *wire.Decoder) error {
		for !d.Done() {
			f, t, err := d.Next()
			if err == nil && f == 3 {
				n, err = d.Int64()
			} else if err == nil {
				err = d.Skip(t)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	return n, err
}
