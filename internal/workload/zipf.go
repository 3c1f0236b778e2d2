package workload

import (
	"math"
	"math/rand"
	"sort"
)

// ZipfSampler draws ranks in [0, n) with probability proportional to
// 1/(rank+1)^alpha. Unlike math/rand's Zipf it supports any alpha >= 0
// (the paper's Figure 2a sweeps alpha from well below 1 to 1.4) and is
// exact: it inverts the CDF over the finite key population.
type ZipfSampler struct {
	cdf []float64
	rng *rand.Rand
}

// NewZipfSampler builds a sampler over n ranks with skew alpha.
func NewZipfSampler(n int, alpha float64, rng *rand.Rand) *ZipfSampler {
	if n <= 0 {
		panic("workload: zipf over empty population")
	}
	cdf := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &ZipfSampler{cdf: cdf, rng: rng}
}

// Sample draws one rank; rank 0 is the most popular.
func (z *ZipfSampler) Sample() int {
	u := z.rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// TopMass returns the cumulative probability of the k most popular ranks
// — the analytic hit ratio of a cache holding exactly the top-k objects.
func (z *ZipfSampler) TopMass(k int) float64 {
	if k <= 0 {
		return 0
	}
	if k >= len(z.cdf) {
		return 1
	}
	return z.cdf[k-1]
}
