package workload

import (
	"fmt"
	"sort"
	"strings"
)

// TraceStats summarizes a generated trace; it backs the Figure 3 style
// distribution analysis.
type TraceStats struct {
	Ops        int
	Reads      int
	Writes     int
	UniqueKeys int
	// Value-size percentiles over accessed objects (weighted by access).
	SizeP50, SizeP90, SizeP99, SizeMax int
	// AccessCounts holds per-key access counts sorted descending —
	// the access-frequency distribution of Figure 3b.
	AccessCounts []int
	// TotalBytes is the sum of value sizes over all accesses.
	TotalBytes int64
}

// ReadRatio returns the observed fraction of reads.
func (s TraceStats) ReadRatio() float64 {
	if s.Ops == 0 {
		return 0
	}
	return float64(s.Reads) / float64(s.Ops)
}

// TopKShare returns the fraction of accesses going to the k most popular
// keys.
func (s TraceStats) TopKShare(k int) float64 {
	if s.Ops == 0 {
		return 0
	}
	if k > len(s.AccessCounts) {
		k = len(s.AccessCounts)
	}
	total := 0
	for _, c := range s.AccessCounts[:k] {
		total += c
	}
	return float64(total) / float64(s.Ops)
}

// String renders a summary line.
func (s TraceStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ops=%d reads=%.1f%% unique=%d p50=%dB p90=%dB p99=%dB max=%dB top10=%.1f%%",
		s.Ops, 100*s.ReadRatio(), s.UniqueKeys, s.SizeP50, s.SizeP90, s.SizeP99, s.SizeMax,
		100*s.TopKShare(10))
	return b.String()
}

// Analyze draws n operations from gen and summarizes them.
func Analyze(gen Generator, n int) TraceStats {
	var st TraceStats
	st.Ops = n
	counts := make(map[string]int)
	sizes := make([]int, 0, n)
	for i := 0; i < n; i++ {
		op := gen.Next()
		if op.Kind == Read {
			st.Reads++
		} else {
			st.Writes++
		}
		counts[op.Key]++
		sizes = append(sizes, op.ValueSize)
		st.TotalBytes += int64(op.ValueSize)
	}
	st.UniqueKeys = len(counts)
	sort.Ints(sizes)
	if n > 0 {
		st.SizeP50 = sizes[n/2]
		st.SizeP90 = sizes[n*90/100]
		st.SizeP99 = sizes[n*99/100]
		st.SizeMax = sizes[n-1]
	}
	st.AccessCounts = make([]int, 0, len(counts))
	for _, c := range counts {
		st.AccessCounts = append(st.AccessCounts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(st.AccessCounts)))
	return st
}
