package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// zipfStream drives n accesses from a fixed-seed zipf popularity over
// `keys` keys of `size` bytes into each sink.
func zipfStream(seed int64, keys, n int, size int64, sinks ...func(key string, size int64)) {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.2, 1, uint64(keys-1))
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%d", z.Uint64())
		for _, s := range sinks {
			s(k, size)
		}
	}
}

// On a stationary trace the windowed estimate must agree with the exact
// full-history curve across the interesting capacity range.
func TestWindowedMRCAgreesWithExactOnStationaryTrace(t *testing.T) {
	const keys, n, size = 500, 50000, 100
	exact := newExact()
	win := NewWindowedAnalyzer(10000, 0.5)
	zipfStream(42, keys, n, size, exact.Access, win.Access)

	ec, wc := exact.Curve(), win.Curve()
	ws := workingSet(ec)
	if ws == 0 {
		t.Fatal("setup: empty working set")
	}
	for _, frac := range []float64{0.05, 0.1, 0.3, 0.6, 1.0} {
		s := int64(float64(ws) * frac)
		e, w := ec.MissRatio(s), wc.MissRatio(s)
		if d := e - w; d > 0.1 || d < -0.1 {
			t.Errorf("miss ratio at %.0f%% of WS: exact=%.3f windowed=%.3f (|Δ| > 0.1)",
				frac*100, e, w)
		}
	}
	if w, e := workingSet(wc), workingSet(ec); w > e {
		t.Errorf("windowed WS %d exceeds exact WS %d", w, e)
	}
}

// The windowed analyzer must track a workload shift the exact analyzer
// dilutes: after the hot set moves, the windowed working-set estimate
// reflects the new population within two windows.
func TestWindowedMRCTracksWorkloadShift(t *testing.T) {
	const size = 100
	win := NewWindowedAnalyzer(5000, 0.5)
	// Phase 1: 2000 keys, uniform-ish.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 15000; i++ {
		win.Access(fmt.Sprintf("a-%d", rng.Intn(2000)), size)
	}
	before := workingSet(win.Curve())
	// Phase 2: the crowd collapses onto 50 keys.
	for i := 0; i < 15000; i++ {
		win.Access(fmt.Sprintf("b-%d", rng.Intn(50)), size)
	}
	after := workingSet(win.Curve())
	if after >= before/4 {
		t.Fatalf("windowed WS must collapse with the workload: before=%d after=%d", before, after)
	}
}

// Memory stays bounded: generations retire, so the distance log never
// exceeds two windows.
func TestWindowedMRCBoundedMemory(t *testing.T) {
	win := NewWindowedAnalyzer(1000, 0.5)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50000; i++ {
		win.Access(fmt.Sprintf("k-%d", rng.Intn(300)), 64)
	}
	if got := win.curN + win.prevN; got > 2000 {
		t.Fatalf("live accesses %d exceed two windows", got)
	}
	if got := len(win.Curve().dists); got > 2000 {
		t.Fatalf("distance log %d exceeds two windows", got)
	}
}

// Weighted ratios are well-formed: in [0,1], non-increasing in size,
// and the compulsory floor is cold/total.
func TestWeightedMRCWellFormed(t *testing.T) {
	win := NewWindowedAnalyzer(2000, 0.5)
	zipfStream(9, 200, 6000, 50, win.Access)
	c := win.Curve()
	prev := 1.1
	for s := int64(0); s <= workingSet(c)+100; s += 500 {
		r := c.MissRatio(s)
		if r < 0 || r > 1 {
			t.Fatalf("MissRatio(%d) = %v out of range", s, r)
		}
		if r > prev+1e-9 {
			t.Fatalf("MissRatio must be non-increasing: %v after %v", r, prev)
		}
		prev = r
	}
	floor := c.coldW / c.Weight()
	if got := c.MissRatio(workingSet(c)); got < floor-1e-9 {
		t.Fatalf("at WS the ratio %v must not undercut the compulsory floor %v", got, floor)
	}
}
