// Package wire implements the binary codec used by every networked
// component in the cachecost laboratory.
//
// The encoding is a protobuf-style tag/length-value format: each field is
// preceded by a varint tag combining a field number and a wire type. The
// point of implementing it (rather than hand-waving "serialization happens
// here") is that the paper's central claim — linked caches save the CPU
// spent (un)marshalling values on the serving path — depends on
// serialization cost being real and proportional to value size. Every
// remote hop in this repository pays this codec; linked-cache hits do not.
package wire

import "errors"

// errOverflow is returned when a varint is longer than 64 bits.
var errOverflow = errors.New("wire: varint overflows uint64")

// ErrTruncated is returned when the input ends mid-value.
var ErrTruncated = errors.New("wire: truncated input")

// MaxVarintLen is the maximum byte length of an encoded uint64 varint.
const MaxVarintLen = 10

// AppendUvarint appends x to b in base-128 varint form and returns the
// extended slice.
func AppendUvarint(b []byte, x uint64) []byte {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}

// Uvarint decodes a varint from b, returning the value and the number of
// bytes consumed. It returns an error if b is truncated or the value
// overflows 64 bits.
func Uvarint(b []byte) (uint64, int, error) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == MaxVarintLen {
			return 0, 0, errOverflow
		}
		if c < 0x80 {
			if i == MaxVarintLen-1 && c > 1 {
				return 0, 0, errOverflow
			}
			return x | uint64(c)<<s, i + 1, nil
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0, ErrTruncated
}

// UvarintLen returns the encoded length of x in bytes.
func UvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// Zigzag maps a signed integer to an unsigned one so that small-magnitude
// negatives encode compactly (protobuf sint64 semantics).
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Unzigzag reverses Zigzag.
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
