package telemetry

import (
	"math/bits"
	"time"
)

// Histogram bucketing: log-linear, HDR-style. Values 0..31 get exact
// unit buckets; above that each power-of-two octave is split into
// 2^subBits = 32 linear sub-buckets, so the relative quantization error
// is bounded by 1/32 ≈ 3.1% — comfortably inside the 5% p99-drift
// budget the acceptance criteria allow. With maxExp = 40 octaves the
// histogram spans 1ns..~18min (or 1B..~1TB for sizes) in
// 32 + 35*32 = 1152 fixed buckets per shard.
const (
	subBits    = 5
	subBuckets = 1 << subBits // 32
	maxExp     = 40
	numBuckets = subBuckets + (maxExp-subBits)*subBuckets
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < subBuckets {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // position of top bit, >= subBits
	if e >= maxExp {
		// Clamp overflow into the last bucket; Max still records the
		// true extreme.
		return numBuckets - 1
	}
	return subBuckets + (e-subBits)*subBuckets + int((uint64(v)>>(uint(e)-subBits))-subBuckets)
}

// bucketLow returns the smallest value mapping to bucket i.
func bucketLow(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	e := subBits + (i-subBuckets)/subBuckets
	sub := (i - subBuckets) % subBuckets
	return (int64(subBuckets) + int64(sub)) << (uint(e) - subBits)
}

// bucketMid returns the representative value reported for bucket i: the
// midpoint of [low, nextLow), which halves the worst-case quantization
// error of reporting an edge.
func bucketMid(i int) int64 {
	lo := bucketLow(i)
	var hi int64
	if i+1 < numBuckets {
		hi = bucketLow(i + 1)
	} else {
		hi = lo + (lo >> subBits)
	}
	return lo + (hi-lo)/2
}

// histShard is one shard's worth of histogram state. Buckets are plain
// atomic adds; max is a CAS loop (rare retries — only on a new extreme).
type histShard struct {
	count   pad64
	sum     pad64
	max     pad64
	_       [40]byte // pad the header off the bucket array's first line
	buckets [numBuckets]pad64
}

// Histogram records a distribution of non-negative int64 values
// (latencies in nanoseconds, sizes in bytes) into fixed log-linear
// buckets. Observe is lock-free, allocation-free, and nil-safe;
// quantiles are extracted by merging shards on read.
type Histogram struct {
	name   string
	unit   string
	labels []Label
	shards []*histShard
}

func newHistogram(name, unit string, labels []Label) *Histogram {
	h := &Histogram{name: name, unit: unit, labels: labels, shards: make([]*histShard, shardCount)}
	for i := range h.shards {
		h.shards[i] = new(histShard)
	}
	return h
}

// Observe records one value. Negative values are clamped to zero (they
// can only arise from clock steps) so the bucket math stays branch-lean.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	s := h.shards[shardIndex()]
	s.count.Add(1)
	s.sum.Add(v)
	s.buckets[bucketIndex(v)].Add(1)
	for {
		cur := s.max.Load()
		if v <= cur || s.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ObserveSince records the elapsed time since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(int64(time.Since(start))) }

// merged folds all shards into one bucket array plus count/sum/max.
func (h *Histogram) merged() (buckets []int64, count, sum, max int64) {
	buckets = make([]int64, numBuckets)
	for _, s := range h.shards {
		count += s.count.Load()
		sum += s.sum.Load()
		if v := s.max.Load(); v > max {
			max = v
		}
		for i := range s.buckets {
			if v := s.buckets[i].Load(); v != 0 {
				buckets[i] += v
			}
		}
	}
	return buckets, count, sum, max
}

// quantileFromBuckets walks a merged bucket array to the bucket holding
// the q-th ranked observation. The top bucket reports the exact max
// rather than a midpoint so p999/max do not overshoot the clamp range.
func quantileFromBuckets(buckets []int64, count, max int64, q float64) int64 {
	if count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation, 1-based, matching the "nearest
	// rank" definition the core driver uses for exact percentiles.
	rank := int64(q*float64(count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > count {
		rank = count
	}
	var seen int64
	for i, b := range buckets {
		if b == 0 {
			continue
		}
		seen += b
		if seen >= rank {
			if i == len(buckets)-1 && max > 0 {
				// The clamp bucket's midpoint is meaningless for
				// values beyond the representable range.
				return max
			}
			mid := bucketMid(i)
			if mid > max && max > 0 {
				return max
			}
			return mid
		}
	}
	return max
}

// HistSummary is the compact digest of one histogram — what RunResult
// and the JSONL recorder carry.
type HistSummary struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit,omitempty"`
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Max   int64   `json:"max"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	P999  int64   `json:"p999"`
	Mean  float64 `json:"mean"`
}

func summarize(name, unit string, buckets []int64, count, sum, max int64) HistSummary {
	s := HistSummary{Name: name, Unit: unit, Count: count, Sum: sum, Max: max}
	if count > 0 {
		s.Mean = float64(sum) / float64(count)
		s.P50 = quantileFromBuckets(buckets, count, max, 0.50)
		s.P90 = quantileFromBuckets(buckets, count, max, 0.90)
		s.P99 = quantileFromBuckets(buckets, count, max, 0.99)
		s.P999 = quantileFromBuckets(buckets, count, max, 0.999)
	}
	return s
}

// reset zeroes every shard.
func (h *Histogram) reset() {
	for _, s := range h.shards {
		s.count.Store(0)
		s.sum.Store(0)
		s.max.Store(0)
		for i := range s.buckets {
			s.buckets[i].Store(0)
		}
	}
}
