package cache

import "sort"

// WindowedAnalyzer estimates the miss-ratio curve of the *recent*
// workload rather than of all history. reuseAnalyzer is exact but
// unbounded: its Fenwick tree and distance log grow with every access,
// and a diurnal or flash-crowd shift stays diluted by hours of stale
// samples. The windowed variant keeps two bounded generations of the
// exact analyzer — the filling current window and the sealed previous
// one — and retires anything older, so memory is O(window) and the
// curve tracks the live workload within at most two windows.
//
// Samples age by generation: the previous window's accesses contribute
// with weight `decay` (0..1], the current window's with weight 1. A
// rotation makes the oldest generation's samples vanish entirely —
// aging is therefore both gradual (decay) and bounded (retirement).
//
// WindowedAnalyzer is not safe for concurrent use; callers (the elastic
// controller) serialize access.
type WindowedAnalyzer struct {
	window int
	decay  float64

	cur, prev   *reuseAnalyzer
	curN, prevN int
}

// NewWindowedAnalyzer returns an analyzer holding at most 2·window
// accesses. decay weights the previous generation's samples; values
// outside (0, 1] are clamped (0 retires a window instantly at rotation).
func NewWindowedAnalyzer(window int, decay float64) *WindowedAnalyzer {
	if window < 1 {
		window = 1
	}
	if decay < 0 {
		decay = 0
	}
	if decay > 1 {
		decay = 1
	}
	return &WindowedAnalyzer{window: window, decay: decay, cur: newReuseAnalyzer()}
}

// Access records one access. When the current generation fills, it is
// sealed as the previous generation (dropping the one before it) and a
// fresh exact analyzer starts.
func (w *WindowedAnalyzer) Access(key string, size int64) {
	if w.curN >= w.window {
		w.prev, w.prevN = w.cur, w.curN
		w.cur, w.curN = newReuseAnalyzer(), 0
	}
	w.cur.Access(key, size)
	w.curN++
}

// Curve freezes the live generations into a weighted miss-ratio curve.
func (w *WindowedAnalyzer) Curve() *WeightedMRC {
	type sample struct {
		dist int64
		wt   float64
	}
	n := len(w.cur.distances)
	if w.prev != nil {
		n += len(w.prev.distances)
	}
	samples := make([]sample, 0, n)
	for _, d := range w.cur.distances {
		samples = append(samples, sample{d, 1})
	}
	coldW := float64(w.cur.cold)
	totalW := float64(w.curN)
	if w.prev != nil && w.decay > 0 {
		for _, d := range w.prev.distances {
			samples = append(samples, sample{d, w.decay})
		}
		coldW += w.decay * float64(w.prev.cold)
		totalW = float64(w.curN) + w.decay*float64(w.prevN)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].dist < samples[j].dist })
	dists := make([]int64, len(samples))
	cum := make([]float64, len(samples))
	var run float64
	for i, s := range samples {
		run += s.wt
		dists[i] = s.dist
		cum[i] = run
	}
	return &WeightedMRC{dists: dists, cumW: cum, coldW: coldW, totalW: totalW}
}

// WeightedMRC is a frozen miss-ratio curve over decay-weighted samples.
// It answers the same questions as MRC; ratios are weight-fractions
// rather than count-fractions.
type WeightedMRC struct {
	dists  []int64   // sorted finite reuse distances
	cumW   []float64 // cumW[i] = total weight of dists[0..i]
	coldW  float64
	totalW float64
}

// MissRatio returns the weighted fraction of accesses that would miss
// in an LRU of the given byte capacity.
func (m *WeightedMRC) MissRatio(cacheBytes int64) float64 {
	if m.totalW == 0 {
		return 0
	}
	i := sort.Search(len(m.dists), func(i int) bool { return m.dists[i] > cacheBytes })
	var hitW float64
	if i > 0 {
		hitW = m.cumW[i-1]
	}
	r := (m.totalW - hitW) / m.totalW
	if r < 0 {
		return 0
	}
	return r
}

// Weight returns the total sample weight behind the curve.
func (m *WeightedMRC) Weight() float64 { return m.totalW }
