package main

import (
	"math"
	"testing"
)

// counts is what must repeat exactly for a given seed where one client
// runs: the stream, the cache tier's hit ratio and the calls each
// request makes. Allocations repeat to within pool and GC timing.
type counts struct {
	digest                  [32]byte
	hitRatio, cacheCalls    float64
	storageCalls, allocsPer float64
}

func measureCounts(t *testing.T, sp spec, seed int64) (counts, *recorder) {
	t.Helper()
	in, err := drawInputs(sp, seed)
	if err != nil {
		t.Fatal(err)
	}
	r, err := setUp(sp, in)
	if err != nil {
		t.Fatal(err)
	}
	defer r.d.close()
	slices := []sliceStat{r.slice(false), r.slice(true), r.slice(false), r.slice(true)}
	st := r.d.rec.stats()
	if st.overrun > 0 {
		t.Errorf("%s: %d requests have children longer than their root", sp.name, st.overrun)
	}
	lm := layerMetrics(sp, slices, &st, map[string]float64{})
	return counts{
		digest:       in.digest,
		hitRatio:     lm["remotecache.hit_ratio"] + lm["linkedcache.hit_ratio"],
		cacheCalls:   lm["remotecache.calls_per_op"],
		storageCalls: lm["storage.calls_per_op"],
		allocsPer:    endToEndMetrics(slices, 0)["allocs_per_op"],
	}, r.d.rec
}

func TestSameSeedSameCounts(t *testing.T) {
	for _, sp := range specs {
		if sp.tcp {
			continue // two clients interleave at the service: counts are not exact
		}
		sp = sp.scaled(20)
		a, _ := measureCounts(t, sp, 3)
		b, _ := measureCounts(t, sp, 3)
		if a.digest != b.digest {
			t.Errorf("%s: same seed drew different streams", sp.name)
		}
		if a.hitRatio != b.hitRatio || a.cacheCalls != b.cacheCalls || a.storageCalls != b.storageCalls {
			t.Errorf("%s: counts differ between runs of one seed: %+v vs %+v", sp.name, a, b)
		}
		if math.Abs(a.allocsPer-b.allocsPer) > 0.01*a.allocsPer {
			t.Errorf("%s: allocs/op %.3f vs %.3f differ by more than 1%%", sp.name, a.allocsPer, b.allocsPer)
		}
		c, _ := measureCounts(t, sp, 4)
		if c.digest == a.digest {
			t.Errorf("%s: seeds 3 and 4 drew the same stream", sp.name)
		}
	}
}

// Every child span lies inside its root, so children never sum past it,
// and self time plus hop time is the root time.
func TestSpanAccounting(t *testing.T) {
	sp, _ := specByName("remote_1k")
	_, rec := measureCounts(t, sp.scaled(20), 1)
	var rootNS, childNS, selfNS int64
	perRoot := map[int32]int64{}
	for _, s := range rec.spans {
		if layerOf(s.kind) == layerClient {
			rootNS += s.end - s.start
			continue
		}
		root := rec.spans[s.parent]
		if layerOf(root.kind) != layerClient || root.req != s.req {
			t.Fatalf("child span of request %d points at span of request %d", s.req, root.req)
		}
		if s.start < root.start || s.end > root.end {
			t.Fatalf("child [%d,%d] outside its root [%d,%d]", s.start, s.end, root.start, root.end)
		}
		childNS += s.end - s.start
		perRoot[s.parent] += s.end - s.start
	}
	for i, s := range rec.spans {
		if layerOf(s.kind) == layerClient {
			selfNS += s.end - s.start - perRoot[int32(i)]
		}
	}
	st := rec.stats()
	if st.selfNS != selfNS || math.Abs(float64(selfNS+childNS-rootNS)) > 0.01*float64(rootNS) {
		t.Errorf("self %d (fold says %d) + hops %d != roots %d", selfNS, st.selfNS, childNS, rootNS)
	}
	if childNS == 0 || st.roots == 0 {
		t.Errorf("traced slices recorded %d roots and %d ns of hops", st.roots, childNS)
	}
}
