package workload

import (
	"bufio"
	"fmt"
	"io"

	"cachecost/internal/wire"
)

// This file implements trace recording and replay, so a generated (or
// externally converted) operation stream can be persisted and re-run
// bit-for-bit — the workflow used with the published Meta traces [1,7]
// and with production trace captures.
//
// File format: a stream of length-prefixed wire-encoded records,
//
//	uvarint frame length | {1: kind, 2: key, 3: value size}

// WriteTrace draws n operations from gen and writes them to w.
func WriteTrace(w io.Writer, gen Generator, n int) error {
	bw := bufio.NewWriter(w)
	e := wire.NewEncoder(64)
	var hdr []byte
	for i := 0; i < n; i++ {
		op := gen.Next()
		e.Reset()
		e.Uint64(1, uint64(op.Kind))
		e.String(2, op.Key)
		e.Uint64(3, uint64(op.ValueSize))
		hdr = wire.AppendUvarint(hdr[:0], uint64(e.Len()))
		if _, err := bw.Write(hdr); err != nil {
			return fmt.Errorf("workload: write trace: %w", err)
		}
		if _, err := bw.Write(e.Bytes()); err != nil {
			return fmt.Errorf("workload: write trace: %w", err)
		}
	}
	return bw.Flush()
}

// Replay is a Generator that replays a recorded trace. When the trace is
// exhausted it wraps around to the beginning (experiments often need more
// operations than the capture holds); Wrapped reports how many times.
type Replay struct {
	ops     []Op
	pos     int
	wrapped int
	name    string
}

// ReadTrace loads a recorded trace fully into memory.
func ReadTrace(r io.Reader) (*Replay, error) {
	br := bufio.NewReader(r)
	rep := &Replay{name: "replay"}
	var lenBuf [wire.MaxVarintLen]byte
	for {
		// Read the uvarint length byte by byte.
		n := 0
		var frameLen uint64
		for {
			b, err := br.ReadByte()
			if err == io.EOF && n == 0 {
				return rep, nil
			}
			if err != nil {
				return nil, fmt.Errorf("workload: read trace: %w", err)
			}
			lenBuf[n] = b
			n++
			if b < 0x80 {
				break
			}
			if n >= len(lenBuf) {
				return nil, fmt.Errorf("workload: corrupt trace length")
			}
		}
		v, _, err := wire.Uvarint(lenBuf[:n])
		if err != nil {
			return nil, fmt.Errorf("workload: corrupt trace length: %w", err)
		}
		frameLen = v
		if frameLen > 1<<20 {
			return nil, fmt.Errorf("workload: trace record too large (%d bytes)", frameLen)
		}
		body := make([]byte, frameLen)
		if _, err := io.ReadFull(br, body); err != nil {
			return nil, fmt.Errorf("workload: truncated trace record: %w", err)
		}
		op, err := decodeTraceOp(body)
		if err != nil {
			return nil, err
		}
		rep.ops = append(rep.ops, op)
	}
}

func decodeTraceOp(body []byte) (Op, error) {
	var op Op
	d := wire.NewDecoder(body)
	for !d.Done() {
		f, t, err := d.Next()
		if err != nil {
			return op, fmt.Errorf("workload: corrupt trace record: %w", err)
		}
		switch f {
		case 1:
			k, err := d.Uint64()
			if err != nil {
				return op, err
			}
			op.Kind = OpKind(k)
		case 2:
			if op.Key, err = d.String(); err != nil {
				return op, err
			}
		case 3:
			sz, err := d.Uint64()
			if err != nil {
				return op, err
			}
			op.ValueSize = int(sz)
		default:
			if err := d.Skip(t); err != nil {
				return op, err
			}
		}
	}
	if op.Key == "" {
		return op, fmt.Errorf("workload: trace record missing key")
	}
	return op, nil
}

// Name implements Generator.
func (r *Replay) Name() string { return r.name }

// Len returns the number of recorded operations.
func (r *Replay) Len() int { return len(r.ops) }

// Next implements Generator.
func (r *Replay) Next() Op {
	if len(r.ops) == 0 {
		return Op{}
	}
	op := r.ops[r.pos]
	r.pos++
	if r.pos == len(r.ops) {
		r.pos = 0
		r.wrapped++
	}
	return op
}
