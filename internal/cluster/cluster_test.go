package cluster

import (
	"fmt"
	"sync"
	"testing"
)

func TestRingEmptyOwner(t *testing.T) {
	r := NewRing(16)
	if got := r.Owner("k"); got != "" {
		t.Fatalf("empty ring owner = %q", got)
	}
}

func TestRingSingleMemberOwnsAll(t *testing.T) {
	r := NewRing(16)
	r.Add("n1")
	for i := 0; i < 100; i++ {
		if got := r.Owner(fmt.Sprintf("k%d", i)); got != "n1" {
			t.Fatalf("Owner = %q", got)
		}
	}
}

func TestRingStableOwnership(t *testing.T) {
	r := NewRing(64)
	r.Add("n1")
	r.Add("n2")
	r.Add("n3")
	first := make(map[string]string)
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%d", i)
		first[k] = r.Owner(k)
	}
	for k, want := range first {
		if got := r.Owner(k); got != want {
			t.Fatalf("ownership not deterministic: %q %q vs %q", k, got, want)
		}
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing(128)
	for i := 0; i < 4; i++ {
		r.Add(fmt.Sprintf("n%d", i))
	}
	counts := make(map[string]int)
	const n = 10000
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	for node, c := range counts {
		frac := float64(c) / n
		if frac < 0.10 || frac > 0.45 {
			t.Fatalf("node %s owns %.1f%% of keys; ring badly balanced: %v", node, frac*100, counts)
		}
	}
}

func TestRingMinimalMovementOnAdd(t *testing.T) {
	r := NewRing(128)
	r.Add("n1")
	r.Add("n2")
	r.Add("n3")
	before := make(map[string]string)
	const n = 2000
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%d", i)
		before[k] = r.Owner(k)
	}
	r.Add("n4")
	moved := 0
	for k, was := range before {
		now := r.Owner(k)
		if now != was {
			if now != "n4" {
				t.Fatalf("key %q moved between old nodes (%s -> %s)", k, was, now)
			}
			moved++
		}
	}
	frac := float64(moved) / n
	if frac < 0.05 || frac > 0.50 {
		t.Fatalf("adding 1 of 4 nodes moved %.1f%% of keys", frac*100)
	}
}

func TestRingMembers(t *testing.T) {
	r := NewRing(8)
	r.Add("b")
	r.Add("a")
	r.Add("a") // duplicate no-op
	if len(r.members) != 2 || !r.members["a"] || !r.members["b"] || len(r.hashes) != 16 {
		t.Fatalf("members %v over %d virtual nodes, want a and b over 16", r.members, len(r.hashes))
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(32)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				node := fmt.Sprintf("n%d-%d", w, i%3)
				r.Add(node)
				r.Owner(fmt.Sprintf("k%d", i))
			}
		}(w)
	}
	wg.Wait() // run with -race
}

func TestSharderGenerationBumps(t *testing.T) {
	s := NewSharder(32)
	g0 := s.gen
	s.Join("n1")
	if s.gen != g0+1 {
		t.Fatal("Join should bump generation")
	}
}

func TestSharderAssignmentInvalidation(t *testing.T) {
	s := NewSharder(32)
	s.Join("n1")
	a := s.Assign("key")
	if a.Node != "n1" || a.Generation != s.gen {
		t.Fatalf("fresh assignment = %+v at generation %d", a, s.gen)
	}
	s.Join("n2")
	if b := s.Assign("key"); b.Generation != s.gen || b.Generation <= a.Generation {
		t.Fatalf("assignment after a reshard = %+v, want generation %d", b, s.gen)
	}
}

func TestSharderWatchReportsMovedKeys(t *testing.T) {
	s := NewSharder(64)
	s.Join("n1")
	// Track a population of keys.
	keys := make([]string, 500)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		s.Assign(keys[i])
	}
	type event struct {
		moved    []string
		from, to string
	}
	var events []event
	s.Watch(func(moved []string, from, to string) {
		events = append(events, event{moved: moved, from: from, to: to})
	})
	s.Join("n2")
	if len(events) == 0 {
		t.Fatal("joining a node should move some tracked keys")
	}
	totalMoved := 0
	for _, e := range events {
		if e.to != "n2" || e.from != "n1" {
			t.Fatalf("unexpected move %+v", e)
		}
		totalMoved += len(e.moved)
	}
	if totalMoved == 0 || totalMoved == len(keys) {
		t.Fatalf("moved %d of %d keys; expected a proper subset", totalMoved, len(keys))
	}
	// Moved keys are now owned by n2.
	for _, e := range events {
		for _, k := range e.moved {
			if got := s.ring.Owner(k); got != "n2" {
				t.Fatalf("moved key %q owned by %q", k, got)
			}
		}
	}
}
