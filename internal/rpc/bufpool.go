package rpc

import (
	"sync"
	"unsafe"
)

// The transport buffer pool recycles message buffers across the RPC hot
// path. Who owns a buffer when, and who may hand it back, is stated once:
// DESIGN.md, "Buffer ownership". Buffers and their slice headers are
// pooled separately so a Get/Put cycle is allocation free in the steady
// state (Put-ing a bare []byte into a sync.Pool would box the header on
// every call).
var (
	// bufPool holds recycled buffers, boxed in *[]byte.
	bufPool = sync.Pool{New: func() any { return new([]byte) }}
	// hdrPool holds spare *[]byte boxes whose buffer has been handed out.
	hdrPool = sync.Pool{New: func() any { return new([]byte) }}
)

// GetBuffer returns a zero-length buffer with reusable capacity. Pair it
// with PutBuffer once the contents are dead.
func GetBuffer() []byte {
	bp := bufPool.Get().(*[]byte)
	b := (*bp)[:0]
	*bp = nil
	hdrPool.Put(bp)
	return b
}

// PutBuffer recycles b's capacity for future GetBuffer calls. The caller
// must own b outright: nothing may alias it afterwards. Under the race
// detector the released bytes are overwritten first, so a read through a
// stale alias returns poison instead of passing by luck.
func PutBuffer(b []byte) {
	if cap(b) == 0 {
		return
	}
	if poisonReleased {
		b = b[:cap(b)]
		for i := range b {
			b[i] = poisonByte
		}
	}
	bp := hdrPool.Get().(*[]byte)
	*bp = b
	bufPool.Put(bp)
}

// PutBuffers recycles every buffer in bs: the release of a batch's
// borrowed response buffers.
func PutBuffers(bs [][]byte) {
	for _, b := range bs {
		PutBuffer(b)
	}
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
