package cache_test

import (
	"fmt"

	"cachecost/internal/cache"
)

// ExampleLRU shows the byte-budgeted LRU used across the caching tiers.
func ExampleLRU() {
	c := cache.NewLRU[[]byte](1024, func(k string, v []byte) int64 {
		return int64(len(k) + len(v))
	})
	c.Put("user:1", []byte("alice"))
	if v, ok := c.Get("user:1"); ok {
		fmt.Printf("hit: %s\n", v)
	}
	fmt.Printf("hit ratio: %.1f\n", c.Stats().HitRatio())
	// Output:
	// hit: alice
	// hit ratio: 1.0
}

// ExampleWindowedAnalyzer computes a miss-ratio curve from a trace — the
// MR(s) function the paper's cost model consumes. A window the trace
// never fills gives the exact, full-history curve.
func ExampleWindowedAnalyzer() {
	a := cache.NewWindowedAnalyzer(1000, 0.5)
	// Cycle over two 100-byte objects: any cache holding both (200B) hits
	// everything after the cold misses.
	for i := 0; i < 10; i++ {
		a.Access("a", 100)
		a.Access("b", 100)
	}
	curve := a.Curve()
	fmt.Printf("MR at 100B: %.1f\n", curve.MissRatio(100))
	fmt.Printf("MR at 200B: %.1f\n", curve.MissRatio(200))
	// Output:
	// MR at 100B: 1.0
	// MR at 200B: 0.1
}
