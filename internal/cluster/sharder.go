package cluster

import (
	"strings"
	"sync"
)

// Assignment is one ownership grant: node owns key (via its hash slice)
// under the given generation. A consumer holding an Assignment may act as
// the exclusive owner only while the generation matches the sharder's
// current generation for that key — the strong-ownership primitive the
// paper's §6 suggests building consistent caches on.
type Assignment struct {
	Node       string
	Generation uint64
}

// WatchFunc observes resharding events: key ranges moving from one node
// to another. old may be empty when a node first takes ownership.
type WatchFunc func(moved []string, from, to string)

// Sharder is a Slicer-like auto-sharder: it maps keys to nodes through a
// consistent-hash ring and stamps every assignment with a generation that
// invalidates outstanding ownership when the mapping changes.
type Sharder struct {
	mu       sync.RWMutex
	ring     *Ring
	gen      uint64
	watchers []WatchFunc
	// tracked keys let the sharder report which keys moved on membership
	// changes; production Slicer reasons in ranges, we reason in the keys
	// the caches have touched.
	tracked map[string]string // key -> current owner
}

// NewSharder returns a sharder over a fresh ring with the given virtual
// node count.
func NewSharder(virtualNodes int) *Sharder {
	return &Sharder{
		ring:    NewRing(virtualNodes),
		gen:     1,
		tracked: make(map[string]string),
	}
}

// Watch registers fn to observe resharding events.
func (s *Sharder) Watch(fn WatchFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.watchers = append(s.watchers, fn)
}

// Join adds a node and bumps the generation; keys that move to the new
// node are reported to watchers. Watchers are invoked after unlocking —
// on a snapshot copy of the watcher slice, so a watcher may call back
// into the sharder (or register further watchers) without deadlocking —
// and events are grouped per (from, to) edge.
func (s *Sharder) Join(node string) {
	s.mu.Lock()
	s.ring.Add(node)
	s.gen++
	moved := s.remapLocked()
	watchers := append([]WatchFunc(nil), s.watchers...)
	s.mu.Unlock()
	for _, ev := range moved {
		for _, fn := range watchers {
			fn(ev.keys, ev.from, ev.to)
		}
	}
}

// movedEvent is one resharding edge: keys that moved from one owner to
// another in a single membership change.
type movedEvent struct {
	from, to string
	keys     []string
}

// remapLocked recomputes tracked-key ownership, returning keys grouped
// by (from, to) edge. Grouping by destination alone is wrong: one Join
// can move keys from several old owners onto the same new node (and a
// Leave remaps every key the leaver owned to whichever successor arc it
// hashes into), and collapsing those into a single event would report
// all but the first group with the wrong `from`. Callers hold s.mu.
func (s *Sharder) remapLocked() []movedEvent {
	var events []movedEvent
	idx := make(map[[2]string]int)
	for key, owner := range s.tracked {
		now := s.ring.Owner(key)
		if now == owner {
			continue
		}
		edge := [2]string{owner, now}
		i, ok := idx[edge]
		if !ok {
			i = len(events)
			idx[edge] = i
			events = append(events, movedEvent{from: owner, to: now})
		}
		events[i].keys = append(events[i].keys, key)
		s.tracked[key] = now
	}
	return events
}

// Assign returns the current assignment for key and records the key for
// future resharding notifications, copying it when it is new: key may
// alias a request buffer.
func (s *Sharder) Assign(key string) Assignment {
	s.mu.Lock()
	defer s.mu.Unlock()
	owner := s.ring.Owner(key)
	if have, ok := s.tracked[key]; !ok || have != owner {
		s.tracked[strings.Clone(key)] = owner
	}
	return Assignment{Node: owner, Generation: s.gen}
}
