package cache

import (
	"fmt"
	"testing"
)

func byteSize(_ string, v []byte) int64 { return int64(len(v)) }

func newByteLRU(capacity int64) *LRU[[]byte] {
	return NewLRU[[]byte](capacity, byteSize)
}

func TestLRUBasicPutGet(t *testing.T) {
	c := newByteLRU(100)
	c.Put("a", []byte("alpha"))
	v, ok := c.Get("a")
	if !ok || string(v) != "alpha" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("Get(missing) should miss")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// resident reports whether key holds an entry, without touching recency
// or counters.
func resident(c *LRU[[]byte], key string) bool {
	_, ok := c.items[key]
	return ok
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	c := newByteLRU(10)
	c.Put("a", make([]byte, 4))
	c.Put("b", make([]byte, 4))
	c.Get("a")                  // a now most recent
	c.Put("c", make([]byte, 4)) // must evict b
	if resident(c, "b") {
		t.Fatal("b should have been evicted")
	}
	if !resident(c, "a") {
		t.Fatal("a should have survived")
	}
	if !resident(c, "c") {
		t.Fatal("c should be present")
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestLRUByteBudget(t *testing.T) {
	c := newByteLRU(100)
	for i := 0; i < 50; i++ {
		c.Put(fmt.Sprintf("k%d", i), make([]byte, 10))
	}
	if c.UsedBytes() > 100 {
		t.Fatalf("used %d bytes exceeds capacity", c.UsedBytes())
	}
	if len(c.items) != 10 {
		t.Fatalf("Len = %d, want 10", len(c.items))
	}
}

func TestLRUReplaceAdjustsUsage(t *testing.T) {
	c := newByteLRU(100)
	c.Put("k", make([]byte, 10))
	c.Put("k", make([]byte, 30))
	if c.UsedBytes() != 30 {
		t.Fatalf("used = %d, want 30", c.UsedBytes())
	}
	c.Put("k", make([]byte, 5))
	if c.UsedBytes() != 5 {
		t.Fatalf("used = %d, want 5", c.UsedBytes())
	}
	if len(c.items) != 1 {
		t.Fatalf("Len = %d, want 1", len(c.items))
	}
}

func TestLRUOversizedNotAdmitted(t *testing.T) {
	c := newByteLRU(10)
	c.Put("small", make([]byte, 5))
	c.Put("huge", make([]byte, 100))
	if resident(c, "huge") {
		t.Fatal("oversized entry should not be admitted")
	}
	if !resident(c, "small") {
		t.Fatal("existing entries should survive an oversized Put")
	}
}

func TestLRUZeroCapacityCachesNothing(t *testing.T) {
	c := newByteLRU(0)
	c.Put("a", []byte("x"))
	if _, ok := c.Get("a"); ok {
		t.Fatal("zero-capacity cache should never hit")
	}
	if len(c.items) != 0 {
		t.Fatal("zero-capacity cache should hold nothing")
	}
}

func TestLRUDelete(t *testing.T) {
	c := newByteLRU(100)
	c.Put("a", []byte("x"))
	if !c.Delete("a") {
		t.Fatal("Delete should report presence")
	}
	if c.Delete("a") {
		t.Fatal("double Delete should report absence")
	}
	if c.UsedBytes() != 0 {
		t.Fatal("Delete should release bytes")
	}
}

func TestLRUSetCapacityShrinks(t *testing.T) {
	c := newByteLRU(100)
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("k%d", i), make([]byte, 10))
	}
	c.SetCapacity(30)
	if c.UsedBytes() > 30 {
		t.Fatalf("used %d after shrink to 30", c.UsedBytes())
	}
	// Survivors must be the most recently used.
	keys := c.Keys()
	if len(keys) != 3 || keys[0] != "k9" || keys[2] != "k7" {
		t.Fatalf("unexpected survivors: %v", keys)
	}
}

func TestLRUEvictCallback(t *testing.T) {
	c := newByteLRU(8)
	var evicted []string
	c.SetEvictFunc(func(k string, _ []byte) { evicted = append(evicted, k) })
	c.Put("a", make([]byte, 4))
	c.Put("b", make([]byte, 4))
	c.Put("c", make([]byte, 4))
	if len(evicted) != 1 || evicted[0] != "a" {
		t.Fatalf("evicted = %v, want [a]", evicted)
	}
	c.Delete("b")
	if len(evicted) != 2 || evicted[1] != "b" {
		t.Fatalf("delete should invoke callback: %v", evicted)
	}
}

func TestLRUGenericObjectValues(t *testing.T) {
	type obj struct {
		name string
		blob []byte
	}
	c := NewLRU[*obj](1000, func(_ string, o *obj) int64 {
		return int64(len(o.name) + len(o.blob))
	})
	in := &obj{name: "t", blob: make([]byte, 100)}
	c.Put("k", in)
	out, ok := c.Get("k")
	if !ok || out != in {
		t.Fatal("linked-cache semantics: the same pointer must come back")
	}
}

// Regression: replacing an existing key with a value larger than the whole
// capacity must apply the same non-admission rule as insert. The pre-fix
// replace path kept the oversize entry at the front, and evictToFit then
// purged every OTHER entry before touching it.
func TestLRUOversizedReplaceNotAdmitted(t *testing.T) {
	c := newByteLRU(10)
	var evicted []string
	c.SetEvictFunc(func(k string, _ []byte) { evicted = append(evicted, k) })
	c.Put("a", make([]byte, 4))
	c.Put("b", make([]byte, 4))
	c.Put("a", make([]byte, 100)) // oversize replace
	if resident(c, "a") {
		t.Fatal("oversize replacement must not be admitted")
	}
	if !resident(c, "b") {
		t.Fatal("other entries must survive an oversize replace")
	}
	if len(c.items) != 1 || c.UsedBytes() != 4 {
		t.Fatalf("Len=%d used=%d, want 1/4", len(c.items), c.UsedBytes())
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (the dropped old entry)", c.Stats().Evictions)
	}
	if len(evicted) != 1 || evicted[0] != "a" {
		t.Fatalf("evict callback saw %v, want [a]", evicted)
	}
}

// checkLRUInvariants asserts the accounting invariants that both bugfixes
// protect — UsedBytes equals the sum of live entry sizes, the ring holds
// exactly the map's entries, and usage never exceeds capacity — and the
// slab's: every slot but the sentinel is live or free, and a free slot
// holds no key or value.
func checkLRUInvariants(t *testing.T, c *LRU[[]byte]) {
	t.Helper()
	var sum int64
	live := 0
	for prev, i := int32(0), c.nodes[0].next; i != 0; prev, i = i, c.nodes[i].next {
		n := c.nodes[i]
		if n.prev != prev {
			t.Fatalf("slot %d: prev = %d, want %d", i, n.prev, prev)
		}
		if j, ok := c.items[n.key]; !ok || j != i {
			t.Fatalf("slot %d holds %q, which the map puts at %d (%v)", i, n.key, j, ok)
		}
		sum += n.size
		live++
	}
	if c.used != sum {
		t.Fatalf("used = %d, Σ live sizes = %d", c.used, sum)
	}
	if live != len(c.items) {
		t.Fatalf("ring holds %d entries, map %d", live, len(c.items))
	}
	free := 0
	for i := c.free; i != 0; i = c.nodes[i].next {
		if n := c.nodes[i]; n.key != "" || n.val != nil || n.size != 0 {
			t.Fatalf("free slot %d still holds %q (%d B)", i, n.key, len(n.val))
		}
		free++
	}
	if live+free != len(c.nodes)-1 {
		t.Fatalf("%d live + %d free slots, slab has %d", live, free, len(c.nodes)-1)
	}
	if c.used > c.capacity {
		t.Fatalf("used %d exceeds capacity %d", c.used, c.capacity)
	}
}

// FuzzLRUInvariants drives a random op sequence (put, oversize put,
// replace, get, delete) and checks the
// used == Σ live sizes invariant after every single operation.
func FuzzLRUInvariants(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{9, 9, 9, 0, 0, 0, 5, 5})
	f.Add([]byte{3, 17, 255, 3, 17, 42, 7, 7, 7, 128, 64})
	f.Fuzz(func(t *testing.T, script []byte) {
		c := newByteLRU(64)
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], script[i+1]
			key := fmt.Sprintf("k%d", arg%8)
			switch op % 5 {
			case 0: // put, sometimes oversize
				c.Put(key, make([]byte, int(arg)))
			case 1: // bounded put (always admissible)
				c.Put(key, make([]byte, int(arg%32)))
			case 2:
				c.Get(key)
			case 3:
				c.Get(key)
			case 4:
				c.Delete(key)
			}
			checkLRUInvariants(t, c)
		}
	})
}

// TestLRUSteadyStateAllocs pins the slab: once a full cache has grown its
// slab, a Put of a new key reuses the slot its eviction frees, so cycling
// keys through it allocates nothing.
func TestLRUSteadyStateAllocs(t *testing.T) {
	c := newByteLRU(64 * 100)
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	v := make([]byte, 64)
	n := 0
	put := func() {
		c.Put(keys[n%len(keys)], v)
		n++
	}
	for range keys {
		put()
	}
	if got := testing.AllocsPerRun(5000, put); got != 0 {
		t.Fatalf("a Put into a full LRU allocates %.2f times, want 0", got)
	}
	if len(c.items) != 100 || c.Stats().Evictions == 0 {
		t.Fatalf("%d entries, %d evictions: the cache did not cycle", len(c.items), c.Stats().Evictions)
	}
	checkLRUInvariants(t, c)
}

func TestStatsRatios(t *testing.T) {
	s := Stats{Hits: 3, Misses: 1}
	if s.HitRatio() != 0.75 {
		t.Fatalf("HitRatio = %v", s.HitRatio())
	}
	var empty Stats
	if empty.HitRatio() != 0 {
		t.Fatal("empty stats should have zero ratios")
	}
}
