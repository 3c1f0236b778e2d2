// Package freelist keeps spare values for reuse on the request path.
//
// A List does what a sync.Pool does, except that a garbage collection
// does not empty it. A sync.Pool drops its contents across two
// collections, so the requests after one re-allocate every pooled
// encoder, buffer and result set, and the pool's own per-P arrays: a
// burst whose size depends on when the collector ran, not on what the
// requests did. A List keeps what it is given, up to maxFree values, so
// a warmed path allocates the same count for the same requests whether a
// collection ran in between or not.
package freelist

import "sync"

// maxFree bounds the values one List keeps, and so what an idle process pins
// after a burst. It is well above what a warmed path holds at once with a
// few requests in flight; under more, a Put beyond it drops the value for
// the collector and a Get on the emptied list comes back empty, as after
// a sync.Pool's collection.
const maxFree = 256

// List is a bounded stack of spare values, safe for concurrent use. The
// zero List is empty and ready to use.
type List[T any] struct {
	// New, when set, makes the value a Get on an empty list returns;
	// without it that Get returns T's zero value.
	New func() T

	mu   sync.Mutex
	free []T
}

// Get takes the most recently put value, or, when the list is empty,
// New's (or the zero value).
func (l *List[T]) Get() T {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		v := l.free[n-1]
		var zero T
		l.free[n-1] = zero // the list no longer references it
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return v
	}
	l.mu.Unlock()
	if l.New != nil {
		return l.New()
	}
	var zero T
	return zero
}

// Put keeps v for a later Get, or drops it when the list is full. The
// caller must not use v afterwards.
func (l *List[T]) Put(v T) {
	l.mu.Lock()
	if l.free == nil {
		// Sized once, so keeping values never grows the list.
		l.free = make([]T, 0, maxFree)
	}
	if len(l.free) < maxFree {
		l.free = append(l.free, v)
	}
	l.mu.Unlock()
}
