package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cachecost/internal/cluster"
	"cachecost/internal/fault"
	"cachecost/internal/linkedcache"
	"cachecost/internal/remotecache"
	"cachecost/internal/rpc"
	"cachecost/internal/trace"
)

// The architectures of Figure 1 as values. Each design is one small type
// implementing tier, bound to a request lane; KVService and CatalogService
// run the same six, so each read and write protocol is stated once, in
// this file. Nothing here knows which service is calling: the application
// hands in its storage path (source) with every call and its object's
// size and wire form (objectKit) once.

// source is the application's storage path for one request lane, shared
// by every request on the lane and safe for them to use concurrently.
type source[V any] interface {
	// load reads key's object. held, when non-nil, is the storage
	// response v is lent from, as in tier.read: whoever reads v last
	// recycles it, and a cache that keeps v keeps a copy (keepLoaded).
	load(sc trace.SpanContext, key string) (v V, held []byte, err error)
	// version is the §5.5 version check: key's storage version, 0 when
	// storage has no such key (stored versions start at 1).
	version(sc trace.SpanContext, key string) (uint64, error)
	// store applies a client's write payload (Service.Write's value) to
	// key. The payload travels beside the lane-owned source, not inside a
	// per-request closure: handed through the tier interface, a closure
	// escapes to the heap on every write.
	store(sc trace.SpanContext, key string, payload []byte) error
}

// loadMisses completes a batched read: one storage round trip loads
// keys[i] into values[i] for every i in miss. It returns the missed keys
// and their objects, positionally, for the caller to backfill with, and
// the response they are lent from (held, as in source.load).
func loadMisses[V any](sc trace.SpanContext, keys []string, miss []int, values []V, src batchSource[V]) ([]string, []V, []byte, error) {
	if len(miss) == 0 {
		return nil, nil, nil, nil
	}
	missKeys := make([]string, len(miss))
	for j, i := range miss {
		missKeys[j] = keys[i]
	}
	loaded, held, err := src.loadBatch(sc, missKeys)
	if err != nil {
		return nil, nil, nil, err
	}
	for j, i := range miss {
		values[i] = loaded[j]
	}
	return missKeys, loaded, held, nil
}

// keepLoaded turns an object a storage load lent from held into one a
// cache can keep: when held is set, the application's copy of it
// (objectKit.keep), and held recycled.
func keepLoaded[V any](keep func(V) V, v V, held []byte) V {
	if held == nil {
		return v
	}
	v = keep(v)
	rpc.PutBuffer(held)
	return v
}

// tier is one architecture's cache policy on one request lane.
type tier[V any] interface {
	// read serves key; hit reports whether the cache did. The services
	// count (reads, hits) from it, so the hit ratio means the same thing
	// under every architecture. key aliases the request, as drop's may:
	// a tier that keeps it past the call copies it.
	//
	// held, when non-nil, is a transport buffer v is borrowed from (a
	// Remote hit whose wire form is the object, or a row value a storage
	// load lent, on Base and on a Remote miss): the caller hands it to
	// rpc.PutBuffer once it is done reading v, and keeps no reference to v
	// past that (DESIGN.md, "Buffer ownership"). It is a plain value, not
	// a release closure: a closure through this interface is an
	// allocation per request.
	read(sc trace.SpanContext, key string, src source[V]) (v V, held []byte, hit bool, err error)
	// drop applies a write whose resulting object the caller does not
	// hold, and removes key's entry so the next read reloads it. key may
	// alias the request (the front door's write): a tier that keeps it
	// past the call copies it.
	drop(sc trace.SpanContext, key string, payload []byte, src source[V]) error
}

// The optional capabilities. A service asserts for one per call; a tier
// has one only by declaring the method itself (TestTierCapabilities pins
// the table), so a design without a batched protocol falls back to its
// per-key one instead of bypassing its cache.

// writeThrough is a tier that can keep v, the whole object a write's
// payload produces, instead of dropping the entry.
type writeThrough[V any] interface {
	write(sc trace.SpanContext, key string, v V, payload []byte, src source[V]) error
}

// batchSource is a storage path with a one-round-trip, positional load;
// held is as in source.load, one response for the whole batch.
type batchSource[V any] interface {
	source[V]
	loadBatch(sc trace.SpanContext, keys []string) (values []V, held []byte, err error)
}

// batchReader is a tier with a multi-key read protocol; values are
// positional, hits counts the keys the cache served, and held lists the
// transport buffers the values are borrowed from, as in tier.read.
type batchReader[V any] interface {
	readBatch(sc trace.SpanContext, keys []string, src batchSource[V]) (values []V, held [][]byte, hits int, err error)
}

// batchDropper is a tier that invalidates a multi-key write in one frame.
type batchDropper[V any] interface {
	dropBatch(sc trace.SpanContext, keys []string, payloads [][]byte, src source[V]) error
}

// objectKit is what the application contributes to its architecture: how
// the linked cache budgets one live object, and the serialized form a
// remote cache holds (the asymmetry §5.4 prices).
type objectKit[V any] struct {
	sizeOf func(key string, v V) int64
	encode func(V) []byte
	// decode builds an object that shares nothing with its input. It is
	// nil when the wire form is the object (V is []byte): a Remote hit
	// then lends out the bytes it received instead of copying them.
	decode func([]byte) (V, error)
	// keep copies an object a storage load lent (source.load's held), so
	// a cache can hold it past the response's release. It is nil when the
	// application's source never lends.
	keep func(V) V
}

// architecture is one built design: the cache state every lane shares,
// and the binder that makes a lane's tier from it.
type architecture[V any] struct {
	// bind returns the tier for the lane with fault decision stream w
	// (-1 = default) and private cache client stack rc (nil unless Remote).
	bind func(w int, rc *remotecache.Client) tier[V]
	// lc is the Linked cache, nil elsewhere: the elastic controller
	// resizes through it.
	lc *linkedcache.Cache[stamped[V, struct{}]]
}

// newArchitecture builds cfg.Arch: the shared linked cache, billed once
// per application server (the linked tier is deployed in each, §2.4), and
// the per-lane binder. An architecture nothing here implements fails now,
// not at the first request.
func newArchitecture[V any](cfg *ServiceConfig, kit objectKit[V]) (*architecture[V], error) {
	lcfg := linkedcache.Config{
		CapacityBytes: cfg.AppCacheBytes,
		Meter:         cfg.Meter,
		Name:          "app.cache",
		Telemetry:     cfg.Telemetry,
	}
	// The consistency caches never resize: they price the static budget.
	// Linked goes through SetBilledReplicas so a later Resize re-prices
	// budget × replicas.
	shared := func(t tier[V]) func(int, *remotecache.Client) tier[V] {
		return func(int, *remotecache.Client) tier[V] { return t }
	}
	static := func(t tier[V]) func(int, *remotecache.Client) tier[V] {
		cfg.Meter.Component("app.cache").SetMemBytes(cfg.AppCacheBytes * int64(cfg.AppReplicas))
		return shared(t)
	}
	a := &architecture[V]{}
	switch cfg.Arch {
	case Base:
		a.bind = shared(baseTier[V]{})
	case Remote:
		a.bind = func(_ int, rc *remotecache.Client) tier[V] {
			return &remoteTier[V]{rc: rc, kit: kit}
		}
	case Linked:
		g := newGuarded(lcfg, kit, 0, equal[struct{}])
		a.lc = g.lc
		a.lc.SetBilledReplicas(cfg.AppReplicas)
		a.bind = func(w int, _ *remotecache.Client) tier[V] {
			return &linkedTier[V]{guarded: g, faults: cfg.Faults, w: w}
		}
	case LinkedVersion:
		a.bind = static(newVersionTier(lcfg, kit))
	case LinkedOwned:
		// One application server owns every shard: the map's leases are
		// real, its routing is not exercised.
		smap, err := cluster.NewShardMap(64, []string{"app0"}, 64)
		if err != nil {
			return nil, err
		}
		a.bind = static(newOwnedTier("app0", smap, lcfg, kit))
	case LinkedTTL:
		a.bind = static(newTTLTier(lcfg, kit, linkedTTL))
	default:
		return nil, fmt.Errorf("core: unknown architecture %v", cfg.Arch)
	}
	return a, nil
}

// baseTier is Figure 1a: no application-side cache.
type baseTier[V any] struct{}

func (baseTier[V]) read(sc trace.SpanContext, key string, src source[V]) (V, []byte, bool, error) {
	v, held, err := src.load(sc, key)
	return v, held, false, err
}

func (baseTier[V]) drop(sc trace.SpanContext, key string, payload []byte, src source[V]) error {
	return src.store(sc, key, payload)
}

func (baseTier[V]) readBatch(sc trace.SpanContext, keys []string, src batchSource[V]) ([]V, [][]byte, int, error) {
	values, held, err := src.loadBatch(sc, keys)
	return values, lentBy(nil, held), 0, err
}

// lentBy adds a batch's storage response, if any, to the buffers its
// values are borrowed from.
func lentBy(bufs [][]byte, held []byte) [][]byte {
	if held == nil {
		return bufs
	}
	return append(bufs, held)
}

// remoteTier is Figure 1b: a lookaside remote cache holding serialized
// objects over the lane's private client stack, so a hit pays the hop and
// the decode. Reads fill on a miss with no expiry; writes invalidate and
// let the next read repopulate.
//
// This type is the one tier that fills and invalidates a remote cache, so
// it is the home of the lookaside stale-set race (ROADMAP item 2): a fill
// racing a write's delete re-installs the value the read loaded before the
// write, with nothing to expire it. read and readBatch fill, drop and
// dropBatch invalidate; a version-stamped set or a lease goes here, and in
// the routed client's copy-forward set (remotecache's routedGet), the one
// other unguarded fill.
type remoteTier[V any] struct {
	rc  *remotecache.Client
	kit objectKit[V]
}

// get is the cache lookup. With a decoding kit the object is built and
// the response buffer recycled here; without one the hit is the borrowed
// bytes themselves, and the buffer travels up as held.
func (t *remoteTier[V]) get(sc trace.SpanContext, key string) (v V, held []byte, found bool, err error) {
	buf, held, found, err := t.rc.BorrowCtx(sc, key)
	if err != nil || !found {
		return v, nil, false, err
	}
	if t.kit.decode == nil {
		return any(buf).(V), held, true, nil
	}
	v, err = t.kit.decode(buf)
	rpc.PutBuffer(held)
	return v, nil, err == nil, err
}

// read fills a miss with the object storage lent: the fill encodes a
// copy into its request, and the object travels up with its response as
// held.
func (t *remoteTier[V]) read(sc trace.SpanContext, key string, src source[V]) (V, []byte, bool, error) {
	v, held, found, err := t.get(sc, key)
	if err != nil || found {
		return v, held, found, err
	}
	if v, held, err = src.load(sc, key); err != nil {
		return v, nil, false, err
	}
	return v, held, false, t.rc.SetCtx(sc, key, t.kit.encode(v))
}

func (t *remoteTier[V]) drop(sc trace.SpanContext, key string, payload []byte, src source[V]) error {
	if err := src.store(sc, key, payload); err != nil {
		return err
	}
	_, err := t.rc.DeleteCtx(sc, key)
	return err
}

// readBatch is the lookaside protocol with one frame per step: one
// MultiGet, one batched storage read for the misses, one MultiSet to
// backfill them. A dead cache node demotes its keys to misses (one
// degradation per failed node RPC), so under faults no key is dropped.
func (t *remoteTier[V]) readBatch(sc trace.SpanContext, keys []string, src batchSource[V]) ([]V, [][]byte, int, error) {
	bufs, found, held, err := t.rc.MultiBorrowCtx(sc, keys)
	if err != nil {
		return nil, nil, 0, err
	}
	values, held, err := t.objects(bufs, found, held)
	if err != nil {
		return nil, nil, 0, err
	}
	var miss []int
	for i, f := range found {
		if !f {
			miss = append(miss, i)
		}
	}
	hits := len(keys) - len(miss)
	missKeys, loaded, lent, err := loadMisses(sc, keys, miss, values, src)
	held = lentBy(held, lent)
	if err != nil || len(miss) == 0 {
		return values, held, hits, err
	}
	fills := make([][]byte, len(loaded))
	for j, v := range loaded {
		fills[j] = t.kit.encode(v)
	}
	return values, held, hits, t.rc.MultiSetCtx(sc, missKeys, fills)
}

// objects turns a batch's borrowed wire forms into objects, positionally.
// Without a decoding kit they are the objects, adopted in place and still
// held; with one, each found entry is decoded and the buffers recycled.
func (t *remoteTier[V]) objects(bufs [][]byte, found []bool, held [][]byte) ([]V, [][]byte, error) {
	if t.kit.decode == nil {
		return any(bufs).([]V), held, nil
	}
	values := make([]V, len(bufs))
	var err error
	for i, f := range found {
		if f && err == nil {
			values[i], err = t.kit.decode(bufs[i])
		}
	}
	rpc.PutBuffers(held)
	return values, nil, err
}

// dropBatch keeps the storage writes per-statement (each update
// replicates through raft on its own) and batches the invalidations into
// one MultiDelete frame.
func (t *remoteTier[V]) dropBatch(sc trace.SpanContext, keys []string, payloads [][]byte, src source[V]) error {
	for i, k := range keys {
		if err := src.store(sc, k, payloads[i]); err != nil {
			return err
		}
	}
	return t.rc.MultiDeleteCtx(sc, keys)
}

// linkedTier is Figure 1c: an in-process cache of live objects, shared by
// every lane, filled through the one fill guard under a stamp every entry
// and every fill matches. Each lane consults the fault layer on its own
// decision stream; an injected fault models the cache shard an app replica
// carries being lost or restarting, so the request skips the cache (a
// counted degradation) and is served as Base would serve it.
type linkedTier[V any] struct {
	*guarded[V, struct{}]
	faults *fault.Injector
	w      int
}

func (t *linkedTier[V]) faulted(sc trace.SpanContext) bool {
	if t.faults == nil {
		return false
	}
	if err := t.faults.Decide(LinkedCacheNode, t.w, sc); err != nil {
		sc.Lane().CountDegraded()
		return true
	}
	return false
}

func (t *linkedTier[V]) read(sc trace.SpanContext, key string, src source[V]) (V, []byte, bool, error) {
	if t.faulted(sc) {
		return baseTier[V]{}.read(sc, key, src)
	}
	act, csc := trace.Start(sc, "app.cache", "read")
	v, hit, err := t.lookup(csc, key, struct{}{}, src)
	return endRead(sc, act, v, hit, err)
}

func (t *linkedTier[V]) write(sc trace.SpanContext, key string, v V, payload []byte, src source[V]) error {
	if err := src.store(sc, key, payload); err != nil {
		return err
	}
	// A faulted write-through cannot install v, so it drops the key as
	// drop does: the entry it leaves would serve the pre-write object once
	// the fault clears.
	if t.faulted(sc) {
		t.evict(key)
	} else {
		t.keep(key, v, struct{}{})
	}
	return nil
}

// readBatch draws one fault decision per batch — the in-process cache
// shard is up or down for the whole request — and serves the batch
// through the guard under one app.cache read span.
func (t *linkedTier[V]) readBatch(sc trace.SpanContext, keys []string, src batchSource[V]) ([]V, [][]byte, int, error) {
	if t.faulted(sc) {
		return baseTier[V]{}.readBatch(sc, keys, src)
	}
	act, csc := trace.Start(sc, "app.cache", "read")
	values, held, hits, err := t.lookupBatch(csc, keys, struct{}{}, src)
	act.End()
	return values, lentBy(nil, held), hits, err
}

// The linked designs. Each is a linked cache whose entries carry a stamp —
// what the design checks before serving one — over one fill guard.

// stamped is a linked tier's cache entry: the stamp it was cached under and
// the object. The stamp leads, so Linked's struct{} stamp costs an entry
// nothing.
type stamped[V, S any] struct {
	stamp S
	v     V
}

// guarded is a linked tier's cache and the one fill guard the four linked
// designs share. An entry serves a read when fresh(entry's stamp,
// read's stamp) holds; otherwise the read fills it. A write or
// invalidation of a key supersedes every fill of the key in flight:
//
//   - a superseded fill never installs its value: it may have loaded
//     before the write, and would cache the pre-write object as a hit;
//   - no read that starts after the write joins a superseded fill.
//
// Reads of a key the fill in flight is fresh for share its load, so a hot
// key's miss or expiry is one storage load, not a stampede; any other read
// supersedes it and fills under its own stamp, so at most one fill per key
// is live. Lookups take no lock. Every mutation of lc — an install, a
// write-through, an invalidation — runs under mu, which is what makes a
// supersede and an install mutually exclusive: a fill registers before its
// load and a write supersedes after its store, so a fill either is
// superseded or loaded the written value.
type guarded[V any, S comparable] struct {
	lc    *linkedcache.Cache[stamped[V, S]]
	lent  func(V) V // objectKit.keep
	fresh func(have, want S) bool

	mu    sync.Mutex
	fills map[string]*fill[V, S]
}

// fill is one fill in flight. Its leader publishes v and err before
// marking done; superseded is guarded by guarded.mu. key is the fill's
// own copy of the key: the fill table's, and the cache entry's once the
// fill installs.
type fill[V, S any] struct {
	key        string
	stamp      S
	done       sync.WaitGroup
	v          V
	err        error
	superseded bool
}

// newGuarded builds the cache; overhead budgets an entry's stamp.
func newGuarded[V any, S comparable](lcfg linkedcache.Config, kit objectKit[V], overhead int64, fresh func(have, want S) bool) *guarded[V, S] {
	return &guarded[V, S]{
		lc:    linkedcache.New(lcfg, func(k string, e stamped[V, S]) int64 { return kit.sizeOf(k, e.v) + overhead }),
		lent:  kit.keep,
		fresh: fresh,
		fills: make(map[string]*fill[V, S]),
	}
}

// equal is the freshness rule of a stamp that must match exactly.
func equal[S comparable](have, want S) bool { return have == want }

// lookup serves key to a read stamped want: the cached entry when it is
// fresh, else the fill in flight when it is fresh, else a new fill
// stamped want. hit reports the first.
func (g *guarded[V, S]) lookup(sc trace.SpanContext, key string, want S, src source[V]) (V, bool, error) {
	if e, ok := g.lc.Get(key); ok && g.fresh(e.stamp, want) {
		return e.v, true, nil
	}
	g.mu.Lock()
	if fl, ok := g.fills[key]; ok && g.fresh(fl.stamp, want) {
		g.mu.Unlock()
		fl.done.Wait()
		return fl.v, false, fl.err
	}
	fl := g.register(key, want)
	g.mu.Unlock()

	v, held, err := src.load(sc, key)
	v = keepLoaded(g.lent, v, held)
	g.install(fl, v, err)
	return v, false, err
}

// lookupBatch is lookup for keys read under one stamp, in one storage
// round trip: each key the cache cannot serve gets a fill of its own,
// registered rather than joined, one loadBatch loads them all, and each
// fill is installed as lookup installs it. A failed load releases every
// fill with its error. values are positional and lent from held, as
// loadMisses lends them; hits counts the keys the cache served.
func (g *guarded[V, S]) lookupBatch(sc trace.SpanContext, keys []string, want S, src batchSource[V]) ([]V, []byte, int, error) {
	values := make([]V, len(keys))
	var miss []int
	for i, k := range keys {
		e, ok := g.lc.Get(k)
		ok = ok && g.fresh(e.stamp, want)
		sc.Lane().CountLinkedHit(ok)
		if ok {
			values[i] = e.v
		} else {
			miss = append(miss, i)
		}
	}
	if len(miss) == 0 {
		return values, nil, len(keys), nil
	}
	fills := make([]*fill[V, S], len(miss))
	g.mu.Lock()
	for j, i := range miss {
		fills[j] = g.register(keys[i], want)
	}
	g.mu.Unlock()
	_, loaded, held, err := loadMisses(sc, keys, miss, values, src)
	for j, fl := range fills {
		var v V
		if err == nil {
			v = loaded[j]
			if held != nil {
				v = g.lent(v)
			}
		}
		g.install(fl, v, err)
	}
	return values, held, len(keys) - len(miss), err
}

// register starts a fill of key stamped want, superseding the one in
// flight: at most one fill per key is live. The caller holds mu.
func (g *guarded[V, S]) register(key string, want S) *fill[V, S] {
	g.supersede(key)
	fl := &fill[V, S]{key: strings.Clone(key), stamp: want} // key may alias the request
	fl.done.Add(1)
	g.fills[fl.key] = fl
	return fl
}

// install completes fl with its load's result: the readers joined to it
// get v and err, and the cache keeps v, under fl's copy of the key, unless
// a write superseded fl.
func (g *guarded[V, S]) install(fl *fill[V, S], v V, err error) {
	fl.v, fl.err = v, err
	g.mu.Lock()
	if !fl.superseded {
		delete(g.fills, fl.key)
		if err == nil {
			g.lc.PutOwned(fl.key, stamped[V, S]{fl.stamp, v})
		}
	}
	g.mu.Unlock()
	fl.done.Done()
}

// keep caches a write-through object, superseding key's fill.
func (g *guarded[V, S]) keep(key string, v V, stamp S) {
	g.mu.Lock()
	g.supersede(key)
	g.lc.Put(key, stamped[V, S]{stamp, v})
	g.mu.Unlock()
}

// drop is the linked designs' invalidating write: storage, then the
// entry, superseding its fill.
func (g *guarded[V, S]) drop(sc trace.SpanContext, key string, payload []byte, src source[V]) error {
	if err := src.store(sc, key, payload); err != nil {
		return err
	}
	g.evict(key)
	return nil
}

// evict drops key's entry, superseding its fill.
func (g *guarded[V, S]) evict(key string) {
	g.mu.Lock()
	g.supersede(key)
	g.lc.Delete(key)
	g.mu.Unlock()
}

// supersede detaches key's live fill, if any: it will not install, and no
// later read joins it. The caller holds mu.
func (g *guarded[V, S]) supersede(key string) {
	if fl, ok := g.fills[key]; ok {
		fl.superseded = true
		delete(g.fills, key)
	}
}

// endRead closes a linked tier's app.cache read span. The designs live
// outside the traced cache library, so the tier records the lookup span
// and its linked hit count itself; the read's storage calls (version
// checks, loads) run under the span, as the §5.5 path model describes.
func endRead[V any](sc trace.SpanContext, act trace.Active, v V, hit bool, err error) (V, []byte, bool, error) {
	if err == nil {
		sc.Lane().CountLinkedHit(hit)
		act.AnnotateBool("cache.hit", hit)
	}
	act.End()
	return v, nil, hit, err
}

// versionTier is Figure 1d: every read revalidates against the storage
// version — linearizable, at one storage round trip per read. An entry is
// stamped with the version its filling read's check returned, and served
// while checks return the same. Writes invalidate.
type versionTier[V any] struct{ *guarded[V, uint64] }

func newVersionTier[V any](lcfg linkedcache.Config, kit objectKit[V]) *versionTier[V] {
	return &versionTier[V]{newGuarded(lcfg, kit, 16, equal[uint64])}
}

func (t *versionTier[V]) read(sc trace.SpanContext, key string, src source[V]) (V, []byte, bool, error) {
	act, csc := trace.Start(sc, "app.cache", "read")
	var v V
	hit := false
	ver, err := src.version(csc, key)
	if err == nil {
		v, hit, err = t.lookup(csc, key, ver, src)
	}
	return endRead(sc, act, v, hit, err)
}

// errNotOwner is returned for a key another application server owns.
// Nothing forwards such a request to its owner yet (ROADMAP item 20(b)):
// a deployment has one application server, which owns every shard.
var errNotOwner = errors.New("core: not the owner of this key")

// ownedTier is the §6 design: a linked cache holding ownership leases
// from the shard map. A node owns a key while it is the primary of the
// key's shard; an entry is stamped with the shard's placement epoch when
// it was cached and served while the epoch is unchanged, so reads are
// linearizable with no storage contact as long as every write for an
// owned key comes through the owner. A migration bumps the moved shard's
// epoch, which voids its entries on every node and leaves every other
// shard's served. The hazard that remains, a write delayed from before a
// migration, is Figure 8's (consistency.RunDelayedWriteScenario).
type ownedTier[V any] struct {
	*guarded[V, uint64]
	self string
	smap *cluster.ShardMap
}

func newOwnedTier[V any](self string, smap *cluster.ShardMap, lcfg linkedcache.Config, kit objectKit[V]) *ownedTier[V] {
	return &ownedTier[V]{guarded: newGuarded(lcfg, kit, 16, equal[uint64]), self: self, smap: smap}
}

// assign is self's lease on key: its shard's epoch, if self is the
// shard's primary. One atomic load; no lock, no per-key state.
func (t *ownedTier[V]) assign(key string) (uint64, error) {
	pl := t.smap.Placement(t.smap.ShardOf(key))
	if pl.Primary() != t.self {
		return 0, errNotOwner
	}
	return pl.Epoch, nil
}

func (t *ownedTier[V]) read(sc trace.SpanContext, key string, src source[V]) (V, []byte, bool, error) {
	act, csc := trace.Start(sc, "app.cache", "read")
	var v V
	hit := false
	epoch, err := t.assign(key)
	if err == nil {
		v, hit, err = t.lookup(csc, key, epoch, src)
	}
	return endRead(sc, act, v, hit, err)
}

// drop routes the write through the owner without re-materializing the
// object: invalidating makes the next read re-compose it under the
// current lease, which preserves linearizability (the owner is the only
// writer of its keys).
func (t *ownedTier[V]) drop(sc trace.SpanContext, key string, payload []byte, src source[V]) error {
	if _, err := t.assign(key); err != nil {
		return err
	}
	return t.guarded.drop(sc, key, payload, src)
}

// write is the owner-routed write-through: the entry is stamped with the
// lease taken before the store.
func (t *ownedTier[V]) write(sc trace.SpanContext, key string, v V, payload []byte, src source[V]) error {
	epoch, err := t.assign(key)
	if err != nil {
		return err
	}
	if err := src.store(sc, key, payload); err != nil {
		return err
	}
	t.keep(key, v, epoch)
	return nil
}

// ttlTier is the bounded-staleness compromise (§7): an entry is stamped
// with the time its fetch began and served with no storage contact until
// it is ttl old, so a read may return an object up to ttl stale.
type ttlTier[V any] struct{ *guarded[V, time.Time] }

func newTTLTier[V any](lcfg linkedcache.Config, kit objectKit[V], ttl time.Duration) *ttlTier[V] {
	fresh := func(fetched, now time.Time) bool { return now.Sub(fetched) < ttl }
	return &ttlTier[V]{newGuarded(lcfg, kit, 24, fresh)}
}

func (t *ttlTier[V]) read(sc trace.SpanContext, key string, src source[V]) (V, []byte, bool, error) {
	act, csc := trace.Start(sc, "app.cache", "read")
	v, hit, err := t.lookup(csc, key, time.Now(), src)
	return endRead(sc, act, v, hit, err)
}

func (t *ttlTier[V]) write(sc trace.SpanContext, key string, v V, payload []byte, src source[V]) error {
	if err := src.store(sc, key, payload); err != nil {
		return err
	}
	t.keep(key, v, time.Now())
	return nil
}

// hitCount is a service's application-level cache accounting, taken at
// the tier call: reads that went through the tier and reads its cache
// served. Unlike the caches' internal stats it sees degraded
// (fault-skipped) lookups, so the hit ratio falls as the fault rate
// rises. Base counts reads and no hits.
type hitCount struct {
	reads, hits atomic.Int64
}

func (c *hitCount) count(reads, hits int) {
	c.reads.Add(int64(reads))
	c.hits.Add(int64(hits))
}

func (c *hitCount) countOne(hit bool) {
	c.reads.Add(1)
	if hit {
		c.hits.Add(1)
	}
}

// cacheStats implements hitRatioReporter.
func (c *hitCount) cacheStats() (hits, reads int64) { return c.hits.Load(), c.reads.Load() }
