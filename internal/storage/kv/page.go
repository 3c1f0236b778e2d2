package kv

import (
	"bytes"
	"sort"

	"cachecost/internal/wire"
)

// Page wire format: repeated groups of field 1 (key), field 2 (value),
// field 3 (version). The encode/decode here is the real CPU a storage node
// pays to move a page across the disk boundary.

// entry is one record of a decoded page.
type entry struct {
	key, val []byte
	ver      Version
}

// decodedPage is the in-memory form held by the block cache: its entries
// in key order. Nothing writes into one once it is built — a write clones
// it — so cached pages, pending pages and the halves of a split may share
// entries and backing arrays.
type decodedPage []entry

// encodePage encodes dp into one buffer of exactly encodedLen(dp) bytes.
// The buffer is the page's new encoded form; no later encode writes into
// it.
func encodePage(dp decodedPage) []byte {
	return wire.Append(make([]byte, 0, encodedLen(dp)), func(e *wire.Encoder) {
		for _, en := range dp {
			e.BytesField(1, en.key)
			e.BytesField(2, en.val)
			e.Uint64(3, en.ver)
		}
	})
}

// encodedLen is len(encodePage(dp)), by arithmetic: per entry, three
// one-byte tags, the key and value with their varint lengths, and the
// version's varint.
func encodedLen(dp decodedPage) int {
	n := 0
	for _, en := range dp {
		k, v := len(en.key), len(en.val)
		n += 3 + wire.UvarintLen(uint64(k)) + k + wire.UvarintLen(uint64(v)) + v + wire.UvarintLen(en.ver)
	}
	return n
}

// decodePage decodes an encoded page of n entries (its page.n, a sizing
// hint). It does not copy buf: the decoded keys and values alias it, each
// clipped to its own length (b[:n:n]) so an append to one can never run
// into its neighbour. That is safe because an encoded page is never
// rewritten (encodeDirty gives a page a fresh buffer), and it keeps buf
// alive as long as the decoded page: a cached page keeps it, including
// the bytes of entries a later write replaced, until the block cache
// evicts it.
func decodePage(buf []byte, n int) decodedPage {
	dp := make(decodedPage, 0, n)
	var en entry
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
			en.key = b[:len(b):len(b)]
		case 2:
			b, err := d.Bytes()
			if err != nil {
				panic("kv: corrupt page value")
			}
			en.val = b[:len(b):len(b)]
		case 3:
			v, err := d.Uint64()
			if err != nil {
				panic("kv: corrupt page version")
			}
			en.ver = v
			dp = append(dp, en)
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
func (dp decodedPage) find(key []byte) (int, bool) {
	i := sort.Search(len(dp), func(i int) bool {
		return bytes.Compare(dp[i].key, key) >= 0
	})
	if i < len(dp) && bytes.Equal(dp[i].key, key) {
		return i, true
	}
	return i, false
}
