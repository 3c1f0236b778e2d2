package consistency

import (
	"errors"
	"testing"
)

func TestDelayedWriteAnomalyWithoutFencing(t *testing.T) {
	r := RunDelayedWriteScenario(false)
	if !r.DelayedWriteApplied {
		t.Fatal("without fencing the delayed write must land")
	}
	if !r.Stale {
		t.Fatalf("Figure 8 anomaly should reproduce: %s", r)
	}
	if r.CacheValue != "old" || r.StorageValue != "new" {
		t.Fatalf("unexpected values: %s", r)
	}
}

func TestDelayedWritePreventedByFencing(t *testing.T) {
	r := RunDelayedWriteScenario(true)
	if r.DelayedWriteApplied {
		t.Fatal("fencing must reject the delayed write")
	}
	if r.Stale {
		t.Fatalf("fenced run should stay consistent: %s", r)
	}
}

func TestFencedStoreSemantics(t *testing.T) {
	s := newFencedStore(true)
	if _, err := s.put("k", "a", 1); err != nil {
		t.Fatal(err)
	}
	s.advanceFence("k", 3)
	if _, err := s.put("k", "b", 2); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale token should fence, got %v", err)
	}
	if _, err := s.put("k", "c", 3); err != nil {
		t.Fatalf("current token should pass, got %v", err)
	}
	v, ver, ok := s.get("k")
	if !ok || v != "c" || ver == 0 {
		t.Fatalf("Get = %q %d %v", v, ver, ok)
	}
	// Unenforced store admits anything.
	u := newFencedStore(false)
	u.advanceFence("k", 9)
	if _, err := u.put("k", "x", 1); err != nil {
		t.Fatalf("unenforced store should admit stale tokens: %v", err)
	}
}
