// Package sql implements the SQL front-end of the mini distributed
// database: lexer, parser and the value model. The paper's storage-side
// cost breakdown (§5.3) attributes 40–65% of database CPU to "managing
// connection, query processing, and execution planning" — the work that
// begins in this package on every query, cached data or not. That per-query
// overhead is exactly what rich-object workloads multiply (§5.4) and what
// linked caches bypass.
package sql

import (
	"bytes"
	"fmt"
	"strconv"

	"cachecost/internal/wire"
)

// Kind enumerates value types. Each value is its tag on the wire and in
// stored rows.
type Kind uint8

// Value kinds.
const (
	kindNull Kind = 0
	KindInt  Kind = 1
	KindText Kind = 3
	KindBlob Kind = 4
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case kindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindText:
		return "TEXT"
	case KindBlob:
		return "BLOB"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is one SQL value. The zero Value is NULL.
type Value struct {
	Kind Kind
	Int  int64
	Str  string
	Blob []byte
}

// Constructors.

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int64 returns an INT value.
func Int64(v int64) Value { return Value{Kind: KindInt, Int: v} }

// Text returns a TEXT value.
func Text(s string) Value { return Value{Kind: KindText, Str: s} }

// Blob returns a BLOB value. The slice is not copied.
func Blob(b []byte) Value { return Value{Kind: KindBlob, Blob: b} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == kindNull }

// Size returns the approximate in-memory size of the value in bytes,
// used for cache budgeting and trace statistics.
func (v Value) Size() int64 {
	switch v.Kind {
	case KindText:
		return int64(len(v.Str)) + 16
	case KindBlob:
		return int64(len(v.Blob)) + 16
	default:
		return 16
	}
}

// Equal reports whether v and o are the same value, with NULL never
// equal to anything (including NULL), per SQL. Values of different kinds
// are not equal.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindInt:
		return v.Int == o.Int
	case KindText:
		return v.Str == o.Str
	case KindBlob:
		return bytes.Equal(v.Blob, o.Blob)
	default:
		return false
	}
}

// String renders the value as a SQL literal.
func (v Value) String() string {
	switch v.Kind {
	case kindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindText:
		return "'" + v.Str + "'"
	case KindBlob:
		return fmt.Sprintf("X'%x'", v.Blob)
	default:
		return "?"
	}
}

// EncodeValue appends v to e under the given field number. Values encode
// as a nested message {1: kind, 2: payload}.
func EncodeValue(e *wire.Encoder, field uint32, v Value) {
	e.Message(field, func(sub *wire.Encoder) {
		sub.Uint64(1, uint64(v.Kind))
		switch v.Kind {
		case KindInt:
			sub.Int64(2, v.Int)
		case KindText:
			sub.String(4, v.Str)
		case KindBlob:
			sub.BytesField(5, v.Blob)
		}
	})
}

// AliasValue decodes a value previously written by EncodeValue from the
// nested-message bytes. It does not copy: a TEXT's string and a BLOB's
// bytes alias buf. It is for a caller that owns buf or is done with the
// value before buf is reused — a row the store lends, which it never
// rewrites; a proposed command; a request the handler consumes before it
// returns; a storage response a borrowed ResultSet holds (DESIGN.md,
// "Buffer ownership"). Whatever keeps such a value past buf's life copies
// it: a row encode, a key build, an error message, a cache fill. A kind
// tag other than NULL, INT, TEXT or BLOB's is an error.
func AliasValue(buf []byte) (Value, error) {
	d := wire.NewDecoder(buf)
	var v Value
	for !d.Done() {
		f, t, err := d.Next()
		if err != nil {
			return v, err
		}
		switch f {
		case 1:
			k, err := d.Uint64()
			if err != nil {
				return v, err
			}
			if k != uint64(kindNull) && k != uint64(KindInt) && k != uint64(KindText) && k != uint64(KindBlob) {
				return v, fmt.Errorf("sql: unknown value kind %d", k)
			}
			v.Kind = Kind(k)
		case 2:
			if v.Int, err = d.Int64(); err != nil {
				return v, err
			}
		case 4:
			if v.Str, err = d.StringZC(); err != nil {
				return v, err
			}
		case 5:
			if v.Blob, err = d.Bytes(); err != nil {
				return v, err
			}
		default:
			if err := d.Skip(t); err != nil {
				return v, err
			}
		}
	}
	return v, nil
}

// KeyBytes renders v as an order-preserving byte string usable in KV keys
// (primary keys and index keys). Text sorts lexically; ints sort by an
// offset-binary big-endian form.
func (v Value) KeyBytes() []byte { return v.AppendKeyBytes(nil) }

// AppendKeyBytes appends KeyBytes' form of v to dst, so a caller can build
// a whole key in one buffer it supplies.
func (v Value) AppendKeyBytes(dst []byte) []byte {
	switch v.Kind {
	case KindInt:
		u := uint64(v.Int) ^ (1 << 63) // flip sign bit: negative < positive
		dst = append(dst, 'i')
		for i := 0; i < 8; i++ {
			dst = append(dst, byte(u>>(56-8*i)))
		}
		return dst
	case KindText:
		return append(append(dst, 's'), v.Str...)
	case KindBlob:
		return append(append(dst, 'b'), v.Blob...)
	default:
		return append(dst, 'n')
	}
}
