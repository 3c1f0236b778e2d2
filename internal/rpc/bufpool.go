package rpc

import (
	"unsafe"

	"cachecost/internal/freelist"
)

// bufPool, the transport buffer pool, recycles message buffers across
// the RPC hot path. Who owns a buffer when, and who may hand it back, is
// stated once: DESIGN.md, "Buffer ownership". It holds the slices
// themselves, so a Get/Put cycle is allocation free in the steady state.
var bufPool freelist.List[[]byte]

// GetBuffer returns a zero-length buffer with reusable capacity, or nil
// when the pool is empty, so the caller's append allocates only the bytes
// it needs. Pair it with PutBuffer once the contents are dead.
func GetBuffer() []byte {
	return bufPool.Get()[:0]
}

// GetBufferCap is GetBuffer for a message of about size bytes: a pooled
// buffer too small for it is replaced by one made to size, so the encode
// allocates once instead of growing field by field. The small buffer is
// left to the collector, which keeps tiny acks from circulating through
// the pool to encoders that need more.
func GetBufferCap(size int) []byte {
	buf := GetBuffer()
	if cap(buf) < size {
		buf = make([]byte, 0, size)
	}
	return buf
}

// PutBuffer recycles b's capacity for future GetBuffer calls; one larger
// than maxKeptBuffer is dropped instead, so the pool never pins a rare
// big frame. The caller must own b outright: nothing may alias it
// afterwards. Under the race detector the released bytes are overwritten
// first, so a read through a stale alias returns poison instead of
// passing by luck.
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
