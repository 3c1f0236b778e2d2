// Package workload generates the request streams of the paper's
// evaluation (§5.2): synthetic Zipfian key-value traffic (100K keys,
// α=1.2, read ratios 50–99%, values 1KB–1MB), a Meta-like trace (30%
// writes, ~10-byte median values [7]), and a Unity-Catalog-like trace
// (≈93% reads, ~23KB median values with a heavy tail, rich objects
// assembled from up to 8 SQL queries [13]).
//
// Generators are deterministic given their seed, so experiments are
// reproducible and architectures can be compared on identical streams.
package workload

import (
	"fmt"
	"math/rand"
)

// OpKind distinguishes reads from writes.
type OpKind int

// Operation kinds.
const (
	Read OpKind = iota
	Write
)

// String implements fmt.Stringer: the driver's failed-op error names
// the kind with it.
func (k OpKind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// Op is one operation of a trace.
type Op struct {
	Kind OpKind
	// Key identifies the object.
	Key string
	// ValueSize is the object's value size in bytes. Sizes are a
	// deterministic function of the key, so re-reads see consistent
	// sizes.
	ValueSize int
}

// Generator produces a deterministic operation stream.
type Generator interface {
	// Next returns the next operation.
	Next() Op
	// Name identifies the workload in reports.
	Name() string
}

// KeyName renders the canonical key for a rank (used by preloaders that
// must materialize the keyspace).
func KeyName(rank int) string { return fmt.Sprintf("key-%08d", rank) }

// permute returns a pseudorandom permutation of [0,n) so that popularity
// rank does not correlate with key order (and therefore with storage page
// adjacency).
func permute(n int, rng *rand.Rand) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
