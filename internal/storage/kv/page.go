package kv

import (
	"bytes"
	"sort"

	"cachecost/internal/wire"
)

// Page wire format: repeated groups of field 1 (key), field 2 (value),
// field 3 (version). The encode/decode here is the real CPU a storage node
// pays to move a page across the disk boundary.

func encodePage(dp *decodedPage) []byte {
	e := wire.NewEncoder(encodedLen(dp))
	for i := range dp.keys {
		e.BytesField(1, dp.keys[i])
		e.BytesField(2, dp.vals[i])
		e.Uint64(3, dp.vers[i])
	}
	return e.Bytes()
}

// encodedLen is len(encodePage(dp)), by arithmetic: per entry, three
// one-byte tags, the key and value with their varint lengths, and the
// version's varint.
func encodedLen(dp *decodedPage) int {
	n := 0
	for i := range dp.keys {
		k, v := len(dp.keys[i]), len(dp.vals[i])
		n += 3 + wire.UvarintLen(uint64(k)) + k + wire.UvarintLen(uint64(v)) + v + wire.UvarintLen(dp.vers[i])
	}
	return n
}

// decodePage decodes an encoded page of n entries (its page.n, a sizing
// hint). It copies buf once, as the read off "disk", and the decoded keys
// and values alias that copy, each clipped to its own length (b[:n:n]) so
// an append to one can never run into its neighbour. The copy lives as
// long as the decoded page: a cached page keeps it, including the bytes
// of entries a later write replaced, until the block cache evicts it.
func decodePage(buf []byte, n int) *decodedPage {
	buf = append([]byte(nil), buf...)
	entries := make([][]byte, 2*n) // the keys' headers, then the values'
	dp := &decodedPage{keys: entries[:0:n], vals: entries[n:n], vers: make([]Version, 0, n)}
	d := wire.NewDecoder(buf)
	for !d.Done() {
		f, t, err := d.Next()
		if err != nil {
			panic("kv: corrupt page: " + err.Error())
		}
		switch f {
		case 1:
			b, err := d.Bytes()
			if err != nil {
				panic("kv: corrupt page key")
			}
			dp.keys = append(dp.keys, b[:len(b):len(b)])
		case 2:
			b, err := d.Bytes()
			if err != nil {
				panic("kv: corrupt page value")
			}
			dp.vals = append(dp.vals, b[:len(b):len(b)])
		case 3:
			v, err := d.Uint64()
			if err != nil {
				panic("kv: corrupt page version")
			}
			dp.vers = append(dp.vers, v)
		default:
			if err := d.Skip(t); err != nil {
				panic("kv: corrupt page field")
			}
		}
	}
	return dp
}

// find returns the index of key in the page, or the insertion point and
// false if absent.
func (dp *decodedPage) find(key []byte) (int, bool) {
	i := sort.Search(len(dp.keys), func(i int) bool {
		return bytes.Compare(dp.keys[i], key) >= 0
	})
	if i < len(dp.keys) && bytes.Equal(dp.keys[i], key) {
		return i, true
	}
	return i, false
}

// clone copies the slice headers (not the byte contents) so the copy can
// be mutated structurally without disturbing the original.
func (dp *decodedPage) clone() *decodedPage {
	n := &decodedPage{
		keys: make([][]byte, len(dp.keys)),
		vals: make([][]byte, len(dp.vals)),
		vers: make([]Version, len(dp.vers)),
	}
	copy(n.keys, dp.keys)
	copy(n.vals, dp.vals)
	copy(n.vers, dp.vers)
	return n
}
