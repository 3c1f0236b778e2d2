package cache

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// newExact is a windowed analyzer whose one window never fills: its curve
// is the exact, full-history miss-ratio curve.
func newExact() *WindowedAnalyzer { return NewWindowedAnalyzer(math.MaxInt, 1) }

// workingSet is the byte capacity at which m reaches its compulsory floor:
// the largest finite reuse distance.
func workingSet(m *WeightedMRC) int64 {
	if len(m.dists) == 0 {
		return 0
	}
	return m.dists[len(m.dists)-1]
}

func TestMRCSequentialScanAlwaysMisses(t *testing.T) {
	a := newExact()
	for i := 0; i < 100; i++ {
		a.Access(fmt.Sprintf("k%d", i), 10)
	}
	m := a.Curve()
	if m.Weight() != 100 || m.coldW != 100 {
		t.Fatalf("scan: total=%v cold=%v", m.Weight(), m.coldW)
	}
	if mr := m.MissRatio(1 << 30); mr != 1.0 {
		t.Fatalf("cold scan should miss at any size, got %v", mr)
	}
}

func TestMRCSingleKeyHitsAfterFirst(t *testing.T) {
	a := newExact()
	for i := 0; i < 10; i++ {
		a.Access("k", 100)
	}
	m := a.Curve()
	if got := m.MissRatio(100); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("MR(100B) = %v, want 0.1 (only the cold miss)", got)
	}
	if got := m.MissRatio(99); got != 1.0 {
		t.Fatalf("MR(99B) = %v, want 1.0 (value does not fit)", got)
	}
}

func TestMRCCyclicPattern(t *testing.T) {
	// Cycle over 3 keys of 10B each: reuse distance is exactly 30B.
	a := newExact()
	keys := []string{"a", "b", "c"}
	for r := 0; r < 10; r++ {
		for _, k := range keys {
			a.Access(k, 10)
		}
	}
	m := a.Curve()
	if got := m.MissRatio(30); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("MR(30B) = %v, want 0.1 (3 cold / 30 accesses)", got)
	}
	if got := m.MissRatio(29); got != 1.0 {
		t.Fatalf("MR(29B) = %v, want 1.0 (LRU thrashes a cyclic scan)", got)
	}
	if ws := workingSet(m); ws != 30 {
		t.Fatalf("WorkingSetBytes = %d, want 30", ws)
	}
}

func TestMRCMatchesActualLRUSimulation(t *testing.T) {
	// Property: for arbitrary traces and cache sizes, the analytic curve
	// must agree exactly with an actual LRU simulation.
	rng := rand.New(rand.NewSource(42))
	const nKeys = 50
	const nAccesses = 2000
	sizes := make(map[string]int64)
	trace := make([]string, nAccesses)
	for i := range trace {
		k := fmt.Sprintf("k%d", int(math.Floor(math.Pow(rng.Float64(), 2)*nKeys))) // skewed
		trace[i] = k
		if _, ok := sizes[k]; !ok {
			sizes[k] = int64(8 + rng.Intn(64))
		}
	}

	a := newExact()
	for _, k := range trace {
		a.Access(k, sizes[k])
	}
	m := a.Curve()

	// Capacities exceed the maximum object size (72B): below that, the
	// LRU's admission policy (oversized objects bypass the cache) departs
	// from the pure stack model by design.
	for _, capacity := range []int64{128, 256, 1024, 4096, 16384} {
		lru := newByteLRU(capacity)
		misses := 0
		for _, k := range trace {
			if _, ok := lru.Get(k); !ok {
				misses++
				lru.Put(k, make([]byte, sizes[k]))
			}
		}
		simMR := float64(misses) / float64(nAccesses)
		anaMR := m.MissRatio(capacity)
		if math.Abs(simMR-anaMR) > 1e-9 {
			t.Fatalf("capacity %d: simulated MR %v != analytic MR %v", capacity, simMR, anaMR)
		}
	}
}

func TestMRCMonotoneNonIncreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := newExact()
	for i := 0; i < 5000; i++ {
		a.Access(fmt.Sprintf("k%d", rng.Intn(200)), int64(1+rng.Intn(100)))
	}
	m := a.Curve()
	prev := 2.0
	for s := int64(0); s <= workingSet(m)+100; s += 97 {
		mr := m.MissRatio(s)
		if mr > prev+1e-12 {
			t.Fatalf("miss ratio increased with cache size at %d: %v > %v", s, mr, prev)
		}
		if mr < 0 || mr > 1 {
			t.Fatalf("miss ratio out of range: %v", mr)
		}
		prev = mr
	}
	// Floor equals cold-miss fraction.
	floor := m.coldW / m.Weight()
	if got := m.MissRatio(workingSet(m)); math.Abs(got-floor) > 1e-9 {
		t.Fatalf("MR at working set = %v, want cold floor %v", got, floor)
	}
}

func TestMRCEmpty(t *testing.T) {
	m := newExact().Curve()
	if m.MissRatio(100) != 0 || m.Weight() != 0 || workingSet(m) != 0 {
		t.Fatal("empty curve should be all zeros")
	}
}

func BenchmarkReuseAnalyzer(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]string, 10000)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	a := newExact()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Access(keys[rng.Intn(len(keys))], 64)
	}
}
