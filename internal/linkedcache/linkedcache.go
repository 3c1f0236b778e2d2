// Package linkedcache implements the linked in-memory cache of the study
// (§2.4, Figure 1c): a cache library embedded directly in the application
// process. Hits return live Go values — no network hop, no
// (de)serialization, no over-read — which is precisely where the paper
// finds the architecture's 2× cost advantage over remote caches.
//
// To avoid replicating the cache in every application server, linked
// caches are sharded: each server owns a partition of the key space and
// the serving tier routes requests to owners. This package is one
// server's cache; ownership is internal/core's Linked+Owned tier over
// cluster.ShardMap.
package linkedcache

import (
	"strings"
	"sync/atomic"

	"cachecost/internal/cache"
	"cachecost/internal/meter"
	"cachecost/internal/telemetry"
	"cachecost/internal/trace"
)

// Cache is a byte-budgeted in-process cache holding live values of type V.
// It is safe for concurrent use.
type Cache[V any] struct {
	store *cache.Sharded[V]
	comp  *meter.Component
	name  string
	// replicas is how many application servers replicate this cache —
	// the metered memory footprint is budget × replicas, kept current
	// across Resize so the bill always prices the live provision.
	replicas atomic.Int64
}

// Config parameterizes a linked cache.
type Config struct {
	// CapacityBytes is the memory budget (the paper's s_A). Required.
	CapacityBytes int64
	// Meter and Name attribute the cache's provisioned memory to a
	// component (busy time is the application's own and is metered by the
	// app server, not here). Nil Meter disables attribution.
	Meter *meter.Meter
	// Name defaults to "app.cache".
	Name string
	// Telemetry, when set, registers a pull collector exposing the
	// cache's hit/miss/eviction counters and used bytes under Name.
	Telemetry *telemetry.Registry
}

// shards is the lock-shard count.
const shards = 16

// New builds a linked cache. sizeOf reports the budgeted bytes of a value;
// it must account for the live object footprint, not a serialized form.
func New[V any](cfg Config, sizeOf cache.SizeOf[V]) *Cache[V] {
	name := cfg.Name
	if name == "" {
		name = "app.cache"
	}
	c := &Cache[V]{store: cache.NewSharded[V](cfg.CapacityBytes, shards, sizeOf), name: name}
	c.replicas.Store(1)
	if cfg.Meter != nil {
		c.comp = cfg.Meter.Component(name)
		c.comp.SetMemBytes(cfg.CapacityBytes)
	}
	c.registerTelemetry(cfg.Telemetry)
	return c
}

// Resize moves the cache's byte budget: shrinking evicts down
// immediately, growing keeps residents. The metered memory footprint
// (budget × billed replicas) follows every change, so /statusz and the
// report price the current provision, not the construction-time one.
func (c *Cache[V]) Resize(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	c.store.Resize(bytes)
	if c.comp != nil {
		c.comp.SetMemBytes(bytes * c.replicas.Load())
	}
}

// SetBilledReplicas records how many application servers replicate this
// cache (the linked tier is deployed once per app server, §2.4); the
// metered footprint is re-priced as budget × n immediately. n < 1 is
// treated as 1.
func (c *Cache[V]) SetBilledReplicas(n int) {
	if n < 1 {
		n = 1
	}
	c.replicas.Store(int64(n))
	if c.comp != nil {
		c.comp.SetMemBytes(c.store.Capacity() * int64(n))
	}
}

// registerTelemetry installs a pull collector publishing the cache's
// counters and used bytes; the lookup hot path is untouched. A nil
// registry is a no-op.
func (c *Cache[V]) registerTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	lbl := []telemetry.Label{telemetry.L("cache", c.name)}
	reg.RegisterCollector("linkedcache."+c.name, func(emit func(telemetry.Sample)) {
		st := c.store.Stats()
		emit(telemetry.Sample{Name: "cache.hits", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.Hits)})
		emit(telemetry.Sample{Name: "cache.misses", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.Misses)})
		emit(telemetry.Sample{Name: "cache.evictions", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.Evictions)})
		emit(telemetry.Sample{Name: "cache.used_bytes", Labels: lbl, Kind: telemetry.KindGauge, Value: float64(c.store.UsedBytes())})
		emit(telemetry.Sample{Name: "cache.capacity_bytes", Labels: lbl, Kind: telemetry.KindGauge, Value: float64(c.store.Capacity())})
	})
}

// Get returns the live value for key. The value is shared with the
// cache (and with every other concurrent Get of the same key), not
// copied — that zero-copy hit path is the architecture's cost edge.
// The contract: treat returned values as immutable, and publish updates
// by Put-ing a fresh value, never by mutating one in place.
func (c *Cache[V]) Get(key string) (V, bool) { return c.store.Get(key) }

// Put stores a live value. The cache keeps a copy of key, which may alias
// a request buffer.
func (c *Cache[V]) Put(key string, v V) { c.store.Put(strings.Clone(key), v) }

// PutOwned is Put for a key the caller already owns, such as a copy made
// for its own bookkeeping: the cache keeps key itself, so it must not
// alias a buffer anyone reuses.
func (c *Cache[V]) PutOwned(key string, v V) { c.store.Put(key, v) }

// Delete removes key.
func (c *Cache[V]) Delete(key string) bool { return c.store.Delete(key) }

// GetOrLoadCtx returns the cached value or loads, caches and returns it:
// the unguarded lookaside form. Concurrent loads of the same key may race
// and both load, and a load that races a writer's Delete re-installs the
// value it read before the write. The Linked tier does not fill through
// it: core's fill guard closes that race. The lookup is recorded as a
// cache span under the caller's span context; load receives that span's
// context so the loader's downstream spans (the storage round trip on a
// miss) nest under it. As Put does, a fill keeps a copy of key, and load's
// value as it is: the loader returns a value of its own.
func (c *Cache[V]) GetOrLoadCtx(sc trace.SpanContext, key string, load func(sc trace.SpanContext) (V, error)) (V, bool, error) {
	act, lsc := trace.Start(sc, c.name, "get-or-load")
	v, ok := c.store.Get(key)
	sc.Lane().CountLinkedHit(ok)
	act.AnnotateBool("cache.hit", ok)
	if ok {
		act.End()
		return v, true, nil
	}
	v, err := load(lsc)
	if err != nil {
		act.End()
		var zero V
		return zero, false, err
	}
	c.store.Put(strings.Clone(key), v)
	act.End()
	return v, false, nil
}

// Stats returns cache counters.
func (c *Cache[V]) Stats() cache.Stats { return c.store.Stats() }

// UsedBytes returns the budgeted bytes of live entries.
func (c *Cache[V]) UsedBytes() int64 { return c.store.UsedBytes() }

// Capacity returns the byte budget.
func (c *Cache[V]) Capacity() int64 { return c.store.Capacity() }
