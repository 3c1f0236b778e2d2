package rpc

import (
	"unsafe"

	"cachecost/internal/freelist"
)

// The transport buffer pool recycles message buffers across the RPC hot
// path. Who owns a buffer when, and who may hand it back, is stated once:
// DESIGN.md, "Buffer ownership". It keeps two size classes, each a free
// list of the slices themselves, so a Get/Put cycle is allocation free in
// the steady state: smallPool holds buffers of at most smallBuffer bytes
// (acks, digests, short replies), bufPool the value-sized rest. A tiny
// message never takes a value-sized buffer out of circulation, and a
// value encode never starts from an ack's.
var bufPool, smallPool freelist.List[[]byte]

// smallBuffer is the largest capacity the small class holds, and the
// capacity it makes, so every buffer it lends fits every small message.
const smallBuffer = 256

// GetBuffer returns a zero-length value-class buffer with reusable
// capacity, or nil when the class is empty, so the caller's append
// allocates only the bytes it needs. Pair it with PutBuffer once the
// contents are dead.
func GetBuffer() []byte {
	return bufPool.Get()[:0]
}

// GetBufferCap is GetBuffer for a message of about size bytes, from the
// size's class: a pooled buffer too small for it is replaced by one made
// to size (the small class makes smallBuffer), so the encode or copy
// allocates once instead of growing. The small buffer is left to the
// collector.
func GetBufferCap(size int) []byte {
	pool, made := &bufPool, size
	if size <= smallBuffer {
		pool, made = &smallPool, smallBuffer
	}
	buf := pool.Get()[:0]
	if cap(buf) < size {
		buf = make([]byte, 0, made)
	}
	return buf
}

// PutBuffer recycles b's capacity into its class; one larger than
// maxKeptBuffer is dropped instead, so the pool never pins a rare big
// frame. The caller must own b outright: nothing may alias it afterwards.
// Under the race detector the released bytes are overwritten first, so a
// read through a stale alias returns poison instead of passing by luck.
func PutBuffer(b []byte) {
	if cap(b) == 0 || cap(b) > maxKeptBuffer {
		return
	}
	if poisonReleased {
		b = b[:cap(b)]
		for i := range b {
			b[i] = poisonByte
		}
	}
	if cap(b) <= smallBuffer {
		smallPool.Put(b)
		return
	}
	bufPool.Put(b)
}

// PutBuffers recycles every buffer in bs: the release of a batch's
// borrowed response buffers.
func PutBuffers(bs [][]byte) {
	for _, b := range bs {
		PutBuffer(b)
	}
}

// maxKeptBuffer bounds the scratch a socket endpoint keeps between frames
// (a client's write buffer, a server worker's encode buffer, a pooled
// request body): one left larger by a rare big frame is dropped, not
// pinned by an idle connection.
const maxKeptBuffer = 64 << 10

// keep returns b emptied for reuse, or nil when it is too large to hold.
func keep(b []byte) []byte {
	if cap(b) > maxKeptBuffer {
		return nil
	}
	return b[:0]
}

// poisonByte is what a released buffer is filled with in race builds.
const poisonByte = 0xDB

// overlaps reports whether a and b share any of their backing storage.
func overlaps(a, b []byte) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(cap(b)) && pb < pa+uintptr(cap(a))
}
