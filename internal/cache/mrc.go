package cache

// reuseAnalyzer computes exact LRU miss-ratio curves from a stream of
// accesses using byte-weighted reuse distances (Mattson's stack algorithm
// with a Fenwick tree, O(log n) per access).
//
// The reuse distance of an access is the total size of the distinct keys
// touched since the previous access to the same key — exactly the number
// of bytes an LRU cache must hold for that access to hit. The resulting
// curve MR(s) is what the paper's theoretical model (§4) consumes.
type reuseAnalyzer struct {
	bit       []int64          // Fenwick tree over access positions, holding sizes
	last      map[string]int   // key -> last access position (1-based)
	lastSize  map[string]int64 // key -> size recorded at that position
	pos       int              // number of accesses so far
	distances []int64          // finite reuse distances, bytes
	cold      int64            // first-touch accesses (infinite distance)
}

// newReuseAnalyzer returns an empty analyzer.
func newReuseAnalyzer() *reuseAnalyzer {
	return &reuseAnalyzer{
		bit:      make([]int64, 1),
		last:     make(map[string]int),
		lastSize: make(map[string]int64),
	}
}

func (a *reuseAnalyzer) bitAdd(i int, delta int64) {
	for ; i < len(a.bit); i += i & (-i) {
		a.bit[i] += delta
	}
}

func (a *reuseAnalyzer) bitSum(i int) int64 {
	var s int64
	for ; i > 0; i -= i & (-i) {
		s += a.bit[i]
	}
	return s
}

// Access records one access to key with the given value size in bytes.
func (a *reuseAnalyzer) Access(key string, size int64) {
	a.pos++
	// Grow the Fenwick tree to cover the new position ("push back" trick:
	// a new node starts as the sum of the already-present child ranges it
	// covers, since the new position itself contributes zero until
	// bitAdd below).
	for len(a.bit) <= a.pos {
		n := len(a.bit)
		low := n - (n & (-n))
		var s int64
		for j := n - 1; j > low; j -= j & (-j) {
			s += a.bit[j]
		}
		a.bit = append(a.bit, s)
	}
	if p, seen := a.last[key]; seen {
		// Bytes of distinct keys accessed strictly after p, plus this key
		// itself (an LRU must hold the key's own bytes too).
		dist := a.bitSum(a.pos-1) - a.bitSum(p) + size
		a.distances = append(a.distances, dist)
		a.bitAdd(p, -a.lastSize[key])
	} else {
		a.cold++
	}
	a.bitAdd(a.pos, size)
	a.last[key] = a.pos
	a.lastSize[key] = size
}
