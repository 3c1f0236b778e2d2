package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"cachecost/internal/wire"
)

// Frame kinds. A traced request is its own kind — not a flag bit — so a
// reader that predates tracing rejects it cleanly instead of misparsing
// the trace block as a frame ID.
const (
	frameRequest       = 0
	frameResponse      = 1
	frameError         = 2
	frameRequestTraced = 3
)

// maxFrameSize bounds a single frame to keep a malformed or hostile peer
// from ballooning memory. 64 MiB comfortably fits the 1 MB values plus
// batching used by the experiments.
const maxFrameSize = 64 << 20

var errFrameTooLarge = errors.New("rpc: frame exceeds maximum size")

// frame is the unit of transport: a request or response with an ID that
// lets one connection multiplex many in-flight calls. Traced requests
// (kind frameRequestTraced) additionally carry a span context so the
// server's spans stitch into the caller's trace.
type frame struct {
	kind   uint8
	id     uint64
	method string // requests and errors carry the method for diagnostics
	body   []byte

	traceID  uint64 // trace context; meaningful only for frameRequestTraced
	spanID   uint64
	sampled  bool
	deadline int64 // SLO expiry, unix nanos (0: none); frameRequestTraced only

	// readFrame's state, kept across the frames one reader decodes.
	hdr   [4]byte  // length prefix
	raw   []byte   // payload buffer; body aliases it
	names []string // interned method names, at most maxInternedMethods
}

// maxInternedMethods bounds a reader's method-name list. A service has a
// handful of methods; a peer that sends more distinct names pays one
// allocation per frame for the rest.
const maxInternedMethods = 16

// appendFrame serializes f to b:
//
//	u32   payload length (big endian)
//	u8    kind
//	17/25B trace context (frameRequestTraced only; see internal/wire)
//	uvar  id
//	uvar  len(method) | method bytes
//	rest  body
func appendFrame(b []byte, f *frame) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0) // length placeholder
	b = append(b, f.kind)
	if f.kind == frameRequestTraced {
		b = wire.AppendTraceContext(b, f.traceID, f.spanID, f.sampled, f.deadline)
	}
	b = binary.AppendUvarint(b, f.id)
	b = binary.AppendUvarint(b, uint64(len(f.method)))
	b = append(b, f.method...)
	b = append(b, f.body...)
	n := len(b) - start - 4
	if n > maxFrameSize {
		return nil, errFrameTooLarge
	}
	binary.BigEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}

// readFrame reads one frame from r into f, reusing f's buffers and method
// names: a reader that decodes a steady stream of frames into one f
// allocates nothing once its buffer fits the largest frame.
func readFrame(r io.Reader, f *frame) error {
	if _, err := io.ReadFull(r, f.hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(f.hdr[:])
	if n > maxFrameSize {
		return errFrameTooLarge
	}
	if cap(f.raw) < int(n) {
		f.raw = make([]byte, n)
	}
	buf := f.raw[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	if len(buf) < 1 {
		return fmt.Errorf("rpc: empty frame")
	}
	f.kind = buf[0]
	buf = buf[1:]
	f.traceID, f.spanID, f.sampled, f.deadline = 0, 0, false, 0
	if f.kind == frameRequestTraced {
		// The trace context decoder fails closed: a truncated or malformed
		// block drops the frame rather than stitching spans into a bogus
		// trace or inventing a deadline.
		tid, sid, sampled, deadline, n, err := wire.DecodeTraceContext(buf)
		if err != nil {
			return fmt.Errorf("rpc: bad trace context: %w", err)
		}
		f.traceID, f.spanID, f.sampled, f.deadline = tid, sid, sampled, deadline
		buf = buf[n:]
	}
	id, k := binary.Uvarint(buf)
	if k <= 0 {
		return fmt.Errorf("rpc: bad frame id")
	}
	buf = buf[k:]
	f.id = id
	mlen, k := binary.Uvarint(buf)
	if k <= 0 || mlen > uint64(len(buf)-k) {
		return fmt.Errorf("rpc: bad method length")
	}
	buf = buf[k:]
	f.method = f.intern(buf[:mlen])
	f.body = buf[mlen:]
	return nil
}

// intern returns name as a string, reusing the reader's earlier copy when
// it has seen the name before.
func (f *frame) intern(name []byte) string {
	if len(name) == 0 {
		return "" // responses carry no method
	}
	for _, s := range f.names {
		if s == string(name) {
			return s
		}
	}
	s := string(name)
	if len(f.names) < maxInternedMethods {
		f.names = append(f.names, s)
	}
	return s
}
