package cluster

import (
	"fmt"
	"sync"
	"testing"
)

// Ring.Owner is on the per-request routing path; it must not allocate.
// (It used to: hash64 went through hash/fnv, whose Write forced a
// []byte(key) copy and whose constructor escaped to an interface.)
func TestRingOwnerZeroAlloc(t *testing.T) {
	r := NewRing(64)
	for i := 0; i < 8; i++ {
		r.Add(fmt.Sprintf("node%d", i))
	}
	key := "key01234"
	allocs := testing.AllocsPerRun(1000, func() {
		if r.Owner(key) == "" {
			t.Fatal("no owner")
		}
	})
	if allocs != 0 {
		t.Fatalf("Ring.Owner allocates %.1f objects per lookup, want 0", allocs)
	}
}

func BenchmarkRingOwner(b *testing.B) {
	r := NewRing(64)
	for i := 0; i < 8; i++ {
		r.Add(fmt.Sprintf("node%d", i))
	}
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%05d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Owner(keys[i&511]) == "" {
			b.Fatal("no owner")
		}
	}
}

// With 64 virtual nodes per member, the max/min key-ownership spread
// across members stays within 2.5x. That bound is documentation as much
// as a guard: it is what the murmur-style finalizer in hash64 buys — a
// raw FNV-1a ring clumps one member's virtual nodes into a single arc
// and fails this by an order of magnitude. Checked for several cluster
// sizes so a finalizer regression cannot hide behind one lucky layout.
func TestRingBalanceBound(t *testing.T) {
	const vnodes = 64
	const keys = 20000
	const maxSpread = 2.5
	for _, members := range []int{2, 4, 8} {
		r := NewRing(vnodes)
		for i := 0; i < members; i++ {
			r.Add(fmt.Sprintf("node%d", i))
		}
		counts := map[string]int{}
		for i := 0; i < keys; i++ {
			counts[r.Owner(fmt.Sprintf("key%06d", i))]++
		}
		min, max := keys, 0
		for i := 0; i < members; i++ {
			c := counts[fmt.Sprintf("node%d", i)]
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if min == 0 {
			t.Fatalf("%d members: a member owns no keys: %v", members, counts)
		}
		if spread := float64(max) / float64(min); spread > maxSpread {
			t.Fatalf("%d members at %d vnodes: ownership spread %.2f exceeds %.1f (%v)",
				members, vnodes, spread, maxSpread, counts)
		}
	}
}

// Join fires watchers outside the sharder's lock on a copied slice; this
// hammers joins, lookups and watcher registration
// concurrently so the race detector can prove that discipline. The
// watcher itself calls back into the sharder — the deadlock this
// pattern exists to prevent.
func TestSharderConcurrentJoinLeaveLookup(t *testing.T) {
	s := NewSharder(32)
	s.Join("seed") // the ring is never empty mid-test
	var mu sync.Mutex
	movedTotal := 0
	s.Watch(func(moved []string, from, to string) {
		if to == "" {
			t.Error("reshard event with empty destination")
		}
		s.Assign("reentrant") // re-entrant call must not deadlock
		mu.Lock()
		movedTotal += len(moved)
		mu.Unlock()
	})
	for i := 0; i < 64; i++ {
		s.Assign(fmt.Sprintf("key%03d", i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Join(fmt.Sprintf("node%d-%d", g, i))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			k := fmt.Sprintf("key%03d", i%64)
			a := s.Assign(k)
			if a.Node == "" {
				t.Error("assignment with no owner")
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			s.Watch(func([]string, string, string) {})
		}
	}()
	wg.Wait()
	if s.Assign("key000").Node == "" {
		t.Fatal("no owner after churn")
	}
}

// One membership change can move keys from several old owners onto the
// same destination; each (from, to) edge must be reported separately
// with its true source, not collapsed under the first edge's `from`.
func TestSharderWatchReportsPerEdgeSources(t *testing.T) {
	s := NewSharder(64)
	s.Join("a")
	s.Join("b")
	for i := 0; i < 400; i++ {
		s.Assign(fmt.Sprintf("key%04d", i))
	}
	owner := map[string]string{}
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("key%04d", i)
		owner[k] = s.ring.Owner(k)
	}
	type edge struct{ from, to string }
	got := map[edge][]string{}
	s.Watch(func(moved []string, from, to string) {
		got[edge{from, to}] = append(got[edge{from, to}], moved...)
	})
	s.Join("c")
	if len(got) == 0 {
		t.Fatal("joining a third node moved no keys")
	}
	for e, keys := range got {
		if e.to != "c" {
			t.Fatalf("keys moved to %q on c's join", e.to)
		}
		for _, k := range keys {
			if owner[k] != e.from {
				t.Fatalf("key %q reported as moving from %q but was owned by %q", k, e.from, owner[k])
			}
			if s.ring.Owner(k) != "c" {
				t.Fatalf("key %q reported moved to c but owned by %q", k, s.ring.Owner(k))
			}
		}
	}
	// With 400 Zipf-free keys over two members, both must lose keys to
	// the newcomer — i.e. at least two distinct source edges.
	if len(got) < 2 {
		t.Fatalf("expected moves from both a and b, got edges %v", got)
	}
}
