package plan

import (
	"fmt"

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

// encodeRow serializes vals (one per table column, in schema order) into
// a buffer of its own, sized so the encode never grows it: the row the
// store keeps.
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
type ResultSet struct {
	Cols         []string
	Rows         [][]sql.Value
	RowsAffected int64
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

// UnmarshalWire implements wire.Unmarshaler.
func (r *ResultSet) UnmarshalWire(d *wire.Decoder) error {
	for !d.Done() {
		f, t, err := d.Next()
		if err != nil {
			return err
		}
		switch f {
		case 1:
			c, err := d.String()
			if err != nil {
				return err
			}
			r.Cols = append(r.Cols, c)
		case 2:
			body, err := d.Bytes()
			if err != nil {
				return err
			}
			row, err := decodeResultRow(body)
			if err != nil {
				return err
			}
			r.Rows = append(r.Rows, row)
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
	for _, row := range r.Rows {
		if len(row) != len(r.Cols) && len(r.Cols) > 0 {
			return fmt.Errorf("plan: result row has %d values for %d columns", len(row), len(r.Cols))
		}
	}
	return nil
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

func decodeResultRow(buf []byte) ([]sql.Value, error) {
	var row []sql.Value
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
		v, err := sql.DecodeValue(body)
		if err != nil {
			return nil, err
		}
		for int(f)-1 > len(row) {
			row = append(row, sql.Null())
		}
		row = append(row, v)
	}
	return row, nil
}
