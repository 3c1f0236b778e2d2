package linkedcache

import (
	"errors"
	"fmt"
	"testing"

	"cachecost/internal/meter"
	"cachecost/internal/trace"
)

type richObj struct {
	Name string
	Blob []byte
}

func objSize(_ string, o *richObj) int64 { return int64(len(o.Name) + len(o.Blob) + 48) }

func newObjCache(capacity int64, m *meter.Meter) *Cache[*richObj] {
	return New(Config{CapacityBytes: capacity, Meter: m}, objSize)
}

func TestHitReturnsSamePointer(t *testing.T) {
	c := newObjCache(1<<20, nil)
	in := &richObj{Name: "t", Blob: make([]byte, 100)}
	c.Put("k", in)
	out, ok := c.Get("k")
	if !ok || out != in {
		t.Fatal("linked cache must return the live object, not a copy")
	}
}

func TestGetOrLoad(t *testing.T) {
	c := newObjCache(1<<20, nil)
	loads := 0
	load := func(trace.SpanContext) (*richObj, error) {
		loads++
		return &richObj{Name: "loaded"}, nil
	}
	v, hit, err := c.GetOrLoadCtx(trace.SpanContext{}, "k", load)
	if err != nil || hit || v.Name != "loaded" {
		t.Fatalf("first = %v %v %v", v, hit, err)
	}
	v2, hit, err := c.GetOrLoadCtx(trace.SpanContext{}, "k", load)
	if err != nil || !hit || v2 != v {
		t.Fatalf("second = %v %v %v", v2, hit, err)
	}
	if loads != 1 {
		t.Fatalf("loads = %d", loads)
	}
}

func TestGetOrLoadErrorNotCached(t *testing.T) {
	c := newObjCache(1<<20, nil)
	boom := errors.New("boom")
	_, _, err := c.GetOrLoadCtx(trace.SpanContext{}, "k", func(trace.SpanContext) (*richObj, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("failed load must not cache")
	}
}

func TestMemoryBudgetAndMetering(t *testing.T) {
	m := meter.NewMeter()
	c := New(Config{CapacityBytes: 8 << 10, Meter: m, Name: "app.cache"}, objSize)
	for i := 0; i < 200; i++ {
		c.Put(fmt.Sprintf("k%d", i), &richObj{Blob: make([]byte, 256)})
	}
	if c.UsedBytes() > 8<<10 {
		t.Fatalf("used %d over budget", c.UsedBytes())
	}
	if got := m.Component("app.cache").MemBytes(); got != 8<<10 {
		t.Fatalf("metered mem = %d", got)
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("expected evictions under pressure")
	}
}

func TestFlushAndDelete(t *testing.T) {
	c := newObjCache(1<<20, nil)
	c.Put("a", &richObj{})
	c.Put("b", &richObj{})
	if !c.Delete("a") {
		t.Fatal("delete existing")
	}
	if c.Delete("a") {
		t.Fatal("delete of a deleted key reported presence")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("deleted key still served")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("delete dropped another key")
	}
}

func TestResizeRepricesMeter(t *testing.T) {
	m := meter.NewMeter()
	c := New(Config{CapacityBytes: 64 << 10, Meter: m, Name: "app.cache"}, objSize)
	comp := m.Component("app.cache")

	// Fill, then shrink: residents evict down and the bill follows.
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("k%d", i), &richObj{Blob: make([]byte, 400)})
	}
	c.Resize(8 << 10)
	if c.Capacity() != 8<<10 || c.UsedBytes() > 8<<10 {
		t.Fatalf("shrink: capacity=%d used=%d", c.Capacity(), c.UsedBytes())
	}
	if got := comp.MemBytes(); got != 8<<10 {
		t.Fatalf("metered mem after shrink = %d, want %d", got, 8<<10)
	}

	c.Resize(1 << 20)
	if got := comp.MemBytes(); got != 1<<20 {
		t.Fatalf("metered mem after grow = %d, want %d", got, 1<<20)
	}
	c.Resize(-5)
	if c.Capacity() != 0 || comp.MemBytes() != 0 {
		t.Fatalf("negative resize must clamp to zero: cap=%d mem=%d", c.Capacity(), comp.MemBytes())
	}
}

func TestBilledReplicasMultiplyFootprint(t *testing.T) {
	m := meter.NewMeter()
	c := New(Config{CapacityBytes: 10 << 20, Meter: m, Name: "app.cache"}, objSize)
	comp := m.Component("app.cache")

	c.SetBilledReplicas(4)
	if got := comp.MemBytes(); got != 4*(10<<20) {
		t.Fatalf("4 replicas: metered mem = %d, want %d", got, 4*(10<<20))
	}
	// Resize under replication re-prices budget × replicas.
	c.Resize(2 << 20)
	if got := comp.MemBytes(); got != 4*(2<<20) {
		t.Fatalf("resize under 4 replicas: metered mem = %d, want %d", got, 4*(2<<20))
	}
	c.SetBilledReplicas(0) // treated as 1
	if got := comp.MemBytes(); got != 2<<20 {
		t.Fatalf("replicas clamp: metered mem = %d, want %d", got, 2<<20)
	}
}
