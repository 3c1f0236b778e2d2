// Package core is the paper's primary contribution materialized as code:
// the four caching architectures of §2.4 assembled from the substrates
// (mini distributed database, remote cache, linked cache, consistency
// strategies), a metered experiment runner that prices each architecture
// on a workload the way §5.1 does, and the §4 analytic cost model.
package core

import (
	"fmt"
	"strings"
)

// Arch identifies a caching architecture from Figure 1.
type Arch int

// The architectures compared throughout the evaluation.
const (
	// Base: no application-side caching; every read is a storage query
	// served (at best) from the storage node's block cache (Figure 1a).
	Base Arch = iota
	// Remote: a lookaside remote cache (memcached-style) between the
	// application and storage (Figure 1b).
	Remote
	// Linked: an in-process cache embedded in the application server,
	// sharded across servers (Figure 1c).
	Linked
	// LinkedVersion: Linked plus a per-read version check against
	// storage for linearizable reads (Figure 1d).
	LinkedVersion
	// LinkedOwned: the §6 future-work design — linked cache with
	// shard-map ownership leases standing in for per-read checks.
	LinkedOwned
	// LinkedTTL: linked cache with TTL expiry — the industry-standard
	// bounded-staleness compromise the paper's related work surveys (§7).
	LinkedTTL

	numArchs // keep last
)

// String implements fmt.Stringer.
func (a Arch) String() string {
	switch a {
	case Base:
		return "Base"
	case Remote:
		return "Remote"
	case Linked:
		return "Linked"
	case LinkedVersion:
		return "Linked+Version"
	case LinkedOwned:
		return "Linked+Owned"
	case LinkedTTL:
		return "Linked+TTL"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// ParseArch is the inverse of Arch.String, as flags spell it:
// case-insensitive, with '+' and '-' interchangeable or omitted, so
// "linked-ttl", "Linked+TTL" and "linkedttl" all name LinkedTTL.
func ParseArch(s string) (Arch, error) {
	norm := strings.NewReplacer("+", "", "-", "")
	var names []string
	for a := Base; a < numArchs; a++ {
		if strings.EqualFold(norm.Replace(a.String()), norm.Replace(s)) {
			return a, nil
		}
		names = append(names, a.String())
	}
	return 0, fmt.Errorf("core: unknown architecture %q (have %s)", s, strings.Join(names, ", "))
}

// Archs lists the eventually-consistent architectures of the §5.3 cost
// comparison, in presentation order.
var Archs = []Arch{Base, Remote, Linked}

// Service is a deployed application serving reads and writes under some
// architecture. Values are the application-level payloads.
type Service interface {
	// Read returns the value for key.
	Read(key string) ([]byte, error)
	// Write stores a new value for key.
	Write(key string, value []byte) error
	// Arch identifies the assembly.
	Arch() Arch
}
