package wire

import (
	"encoding/binary"
	"errors"
)

// Trace-context framing. A span context crossing a transport boundary is
// serialized as a flag-prefixed block so both RPC transports can embed it
// in their frames without varint ambiguity:
//
//	8  trace ID  (big endian)
//	8  span ID   (big endian)
//	1  flags     (bit 0: sampled; bit 1: deadline present; others zero)
//	8  deadline  (big endian unix nanoseconds; present iff bit 1 set)
//
// The deadline is the caller's SLO budget expiry; the front door answers
// a request that arrives past it without work. A block with
// the deadline bit set must carry a non-zero deadline — zero would be
// indistinguishable from "no deadline", so the canonical encoding of "no
// deadline" is bit clear and no trailing word.
//
// Decoding fails closed: a truncated block, an unknown flag bit or a
// non-canonical deadline (bit set, value zero) is an error, never a
// guess — a corrupt header must not stitch spans into the wrong trace or
// invent an SLO.

// traceContextSize is the encoded size of a span context without a
// deadline; traceContextDeadlineSize is the size with one. Decoders must
// use the size returned by DecodeTraceContext, not assume either.
const (
	traceContextSize         = 17
	traceContextDeadlineSize = traceContextSize + 8
)

// Trace-context flag bits.
const (
	traceFlagSampled  = 0x01
	traceFlagDeadline = 0x02
)

// errBadTraceContext is returned for truncated or malformed span contexts.
var errBadTraceContext = errors.New("wire: malformed trace context")

// AppendTraceContext appends the encoding of a span context. deadline is
// unix nanoseconds; zero means none and omits the trailing word.
func AppendTraceContext(dst []byte, traceID, spanID uint64, sampled bool, deadline int64) []byte {
	dst = binary.BigEndian.AppendUint64(dst, traceID)
	dst = binary.BigEndian.AppendUint64(dst, spanID)
	var flags byte
	if sampled {
		flags |= traceFlagSampled
	}
	if deadline != 0 {
		flags |= traceFlagDeadline
	}
	dst = append(dst, flags)
	if deadline != 0 {
		dst = binary.BigEndian.AppendUint64(dst, uint64(deadline))
	}
	return dst
}

// DecodeTraceContext decodes a span context from the front of b and
// returns the number of bytes consumed (traceContextSize or
// traceContextDeadlineSize). It fails closed on truncation, on any flag
// bit it does not understand, and on a deadline flag with a zero value.
func DecodeTraceContext(b []byte) (traceID, spanID uint64, sampled bool, deadline int64, n int, err error) {
	if len(b) < traceContextSize {
		return 0, 0, false, 0, 0, errBadTraceContext
	}
	flags := b[16]
	if flags&^byte(traceFlagSampled|traceFlagDeadline) != 0 {
		return 0, 0, false, 0, 0, errBadTraceContext
	}
	n = traceContextSize
	if flags&traceFlagDeadline != 0 {
		if len(b) < traceContextDeadlineSize {
			return 0, 0, false, 0, 0, errBadTraceContext
		}
		deadline = int64(binary.BigEndian.Uint64(b[traceContextSize:]))
		if deadline == 0 {
			return 0, 0, false, 0, 0, errBadTraceContext
		}
		n = traceContextDeadlineSize
	}
	traceID = binary.BigEndian.Uint64(b)
	spanID = binary.BigEndian.Uint64(b[8:])
	return traceID, spanID, flags&traceFlagSampled != 0, deadline, n, nil
}
