package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestBucketIndexMonotone checks the bucket mapping is monotone and
// that bucketLow inverts it: every bucket's low value maps back to the
// bucket itself.
func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for i := 0; i < numBuckets; i++ {
		lo := bucketLow(i)
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(bucketLow(%d)=%d) = %d", i, lo, got)
		}
		if i <= prev {
			t.Fatalf("bucket order broken at %d", i)
		}
		prev = i
	}
	// Spot-check boundaries around octave edges.
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 1023, 1024, 1025, 1 << 20, 1<<40 - 1, 1 << 40, math.MaxInt64} {
		idx := bucketIndex(v)
		if idx < 0 || idx >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, idx)
		}
		if v < 1<<40 {
			if lo := bucketLow(idx); lo > v {
				t.Fatalf("bucketLow(%d)=%d > v=%d", idx, lo, v)
			}
		}
	}
}

// TestQuantizationError: for any value below the clamp range, the
// bucket midpoint must be within 1/32 (~3.1%) of the true value — the
// bound the ≤5% p99-drift acceptance criterion relies on.
// digest reads back r's one histogram the way reports and RunResult do:
// through a snapshot's HistSummaries.
func digest(t *testing.T, r *Registry) HistSummary {
	t.Helper()
	hs := r.Snapshot().HistSummaries()
	if len(hs) != 1 {
		t.Fatalf("registry holds %d histograms, want 1", len(hs))
	}
	return hs[0]
}

func TestQuantizationError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		v := rng.Int63n(1 << 39)
		if v < subBuckets {
			continue // exact buckets
		}
		mid := bucketMid(bucketIndex(v))
		rel := math.Abs(float64(mid)-float64(v)) / float64(v)
		if rel > 1.0/subBuckets {
			t.Fatalf("value %d reported as %d: rel err %.4f > %.4f", v, mid, rel, 1.0/subBuckets)
		}
	}
}

// TestQuantilesMatchExact draws a heavy-tailed sample, computes exact
// nearest-rank percentiles from the sorted slice, and checks the
// histogram's answers are within bucket resolution.
func TestQuantilesMatchExact(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t", "")
	rng := rand.New(rand.NewSource(42))
	n := 50000
	vals := make([]int64, n)
	for i := range vals {
		// Log-normal-ish latencies around 100µs with a long tail.
		v := int64(100e3 * math.Exp(rng.NormFloat64()))
		vals[i] = v
		h.Observe(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	d := digest(t, r)
	for _, c := range []struct {
		q   float64
		got int64
	}{{0.5, d.P50}, {0.9, d.P90}, {0.99, d.P99}, {0.999, d.P999}} {
		q, got := c.q, c.got
		rank := int(q*float64(n) + 0.5)
		if rank < 1 {
			rank = 1
		}
		exact := vals[rank-1]
		rel := math.Abs(float64(got)-float64(exact)) / float64(exact)
		if rel > 0.05 {
			t.Errorf("q=%.3f: histogram %d vs exact %d (rel err %.3f)", q, got, exact, rel)
		}
	}
	if d.Count != int64(n) {
		t.Errorf("Count = %d, want %d", d.Count, n)
	}
	if d.Max != vals[n-1] {
		t.Errorf("Max = %d, want %d", d.Max, vals[n-1])
	}
}

// TestObserveAllocationFree is the acceptance criterion: recording a
// histogram observation and bumping a counter must not allocate.
func TestObserveAllocationFree(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "seconds")
	c := r.Counter("ops")
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(123456)
		c.Inc()
	}); n != 0 {
		t.Fatalf("record path allocates %.1f allocs/op, want 0", n)
	}
	// Nil metrics (telemetry disabled) must also stay allocation-free.
	var nh *Histogram
	var nc *Counter
	if n := testing.AllocsPerRun(1000, func() {
		nh.Observe(1)
		nc.Inc()
	}); n != 0 {
		t.Fatalf("nil record path allocates %.1f allocs/op, want 0", n)
	}
}

// TestParallelMergeInvariance records the identical observation stream
// once sequentially and once split across 8 goroutines: the merged
// count, sum, max and all quantiles must agree exactly — sharding must
// not change what is measured, only where it is staged.
func TestParallelMergeInvariance(t *testing.T) {
	stream := make([]int64, 40000)
	rng := rand.New(rand.NewSource(11))
	for i := range stream {
		stream[i] = rng.Int63n(10_000_000)
	}

	rseq, rpar := NewRegistry(), NewRegistry()
	seq := rseq.Histogram("h", "")
	for _, v := range stream {
		seq.Observe(v)
	}

	par := rpar.Histogram("h", "")
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(stream); i += workers {
				par.Observe(stream[i])
			}
		}(w)
	}
	wg.Wait()

	if sa, sb := digest(t, rseq), digest(t, rpar); sa != sb || sa.Count != int64(len(stream)) {
		t.Errorf("summaries differ:\nseq %+v\npar %+v", sa, sb)
	}
}

// TestHistogramClampAndNegative: overflow values clamp into the top
// bucket but Max stays exact; negative values record as zero.
func TestHistogramClampAndNegative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t", "")
	huge := int64(1) << 50
	h.Observe(huge)
	h.Observe(-5)
	d := digest(t, r)
	if d.Count != 2 {
		t.Fatalf("Count = %d", d.Count)
	}
	if d.Max != huge {
		t.Errorf("Max = %d, want %d", d.Max, huge)
	}
	// p999 of the clamped value reports the exact max, not a midpoint
	// beyond the representable range.
	if d.P999 != huge {
		t.Errorf("P999 = %d, want exact max %d", d.P999, huge)
	}
	if d.P50 != 0 {
		t.Errorf("P50 = %d, want 0 (negative clamped)", d.P50)
	}
}

// TestObserveDurationHelpers covers the time-based entry point.
func TestObserveDurationHelpers(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t", "seconds")
	h.ObserveSince(time.Now().Add(-time.Millisecond))
	if d := digest(t, r); d.Count != 1 || d.Sum < int64(time.Millisecond) {
		t.Fatalf("count %d sum %d, want one observation of >= 1ms", d.Count, d.Sum)
	}
}

// TestEmptyHistogram: an untouched histogram digests to zeros.
func TestEmptyHistogram(t *testing.T) {
	r := NewRegistry()
	r.Histogram("t", "")
	if s := digest(t, r); s.Count != 0 || s.Max != 0 || s.P99 != 0 || s.Mean != 0 {
		t.Fatalf("empty summary %+v", s)
	}
}

func BenchmarkObserve(b *testing.B) {
	h := newHistogram("b", "", nil)
	b.RunParallel(func(pb *testing.PB) {
		v := int64(1)
		for pb.Next() {
			h.Observe(v)
			v = (v*2862933555777941757 + 3037000493) & ((1 << 30) - 1)
		}
	})
}
