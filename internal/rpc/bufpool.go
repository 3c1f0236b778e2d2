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
	// bufPool holds recycled buffers, boxed in *[]byte. It has no New: a
	// miss is a nil buffer, not an empty box.
	bufPool sync.Pool
	// hdrPool holds spare *[]byte boxes whose buffer has been handed out.
	hdrPool = sync.Pool{New: func() any { return new([]byte) }}
)

// GetBuffer returns a zero-length buffer with reusable capacity, or nil
// when the pool is empty, so the caller's append allocates only the bytes
// it needs. Pair it with PutBuffer once the contents are dead.
func GetBuffer() []byte {
	bp, _ := bufPool.Get().(*[]byte)
	if bp == nil {
		return nil
	}
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
