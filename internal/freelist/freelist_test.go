package freelist

import (
	"runtime"
	"sync"
	"testing"
)

// A collection must not empty a List: that is the difference from
// sync.Pool the request path relies on.
func TestListSurvivesCollection(t *testing.T) {
	var l List[*int]
	if v := l.Get(); v != nil {
		t.Fatal("a zero List without New gave a value")
	}
	v := new(int)
	l.Put(v)
	runtime.GC()
	runtime.GC()
	if got := l.Get(); got != v {
		t.Fatalf("after two collections Get = %p, want %p", got, v)
	}
	if got := l.Get(); got != nil {
		t.Fatal("a value came back twice")
	}
	made := new(int)
	l.New = func() *int { return made }
	if got := l.Get(); got != made {
		t.Fatalf("an empty List with New gave %p, want New's %p", got, made)
	}
}

// A List keeps at most maxFree values, most recent first, and keeping
// them allocates only the list itself, once.
func TestListIsBoundedLIFO(t *testing.T) {
	l := List[int]{New: func() int { return -1 }}
	for i := 0; i < maxFree+10; i++ {
		l.Put(i)
	}
	for i := maxFree - 1; i >= 0; i-- {
		if got := l.Get(); got != i {
			t.Fatalf("Get = %d, want %d", got, i)
		}
	}
	if got := l.Get(); got != -1 {
		t.Fatalf("the list kept more than maxFree values: Get = %d", got)
	}
	if n := testing.AllocsPerRun(100, func() {
		l.Put(1)
		l.Get()
	}); n != 0 {
		t.Errorf("a warmed Put/Get allocates %.1f times", n)
	}
}

func TestListConcurrentUse(t *testing.T) {
	l := List[*int]{New: func() *int { return new(int) }}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v := l.Get()
				*v = g // a value handed to two goroutines at once races here
				l.Put(v)
			}
		}()
	}
	wg.Wait()
}
