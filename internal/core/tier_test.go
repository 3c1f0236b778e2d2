package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cachecost/internal/cluster"
	"cachecost/internal/fault"
	"cachecost/internal/linkedcache"
	"cachecost/internal/meter"
	"cachecost/internal/trace"
	"cachecost/internal/workload"
)

// tierCaps is the set of optional protocols a tier declares.
type tierCaps struct{ batchRead, batchDrop, writeThrough bool }

func capsOf[V any](t tier[V]) (c tierCaps) {
	_, c.batchRead = t.(batchReader[V])
	_, c.batchDrop = t.(batchDropper[V])
	_, c.writeThrough = t.(writeThrough[V])
	return c
}

// TestTierCapabilities pins which optional protocols each architecture's
// tier declares, under both applications. A capability a tier picks up by
// accident — through an embedded helper, say — is a silent policy change:
// a batched read on a consistency design would bypass its cache, and the
// scalar-equivalence tests cannot see it because storage returns the same
// values.
func TestTierCapabilities(t *testing.T) {
	want := map[Arch]tierCaps{
		Base:          {batchRead: true},
		Remote:        {batchRead: true, batchDrop: true},
		Linked:        {batchRead: true, writeThrough: true},
		LinkedVersion: {},
		LinkedOwned:   {writeThrough: true},
		LinkedTTL:     {writeThrough: true},
	}
	for arch := Base; arch < numArchs; arch++ {
		t.Run(arch.String(), func(t *testing.T) {
			kv, err := NewKVService(smallCfg(arch, meter.NewMeter()))
			if err != nil {
				t.Fatal(err)
			}
			catalog := newCatalogSvc(t, arch, ModeKV)
			for name, got := range map[string]tierCaps{"kv": capsOf(kv.l.tier), "catalog": capsOf(catalog.l.tier)} {
				if got != want[arch] {
					t.Errorf("%s: capabilities = %+v, want %+v", name, got, want[arch])
				}
			}
		})
	}
}

// TestTierBatchFallbackUsesCache: a design with no batched protocol must
// serve a batch through its per-key one. Warmed, that is eight in-process
// hits and not one message to storage.
func TestTierBatchFallbackUsesCache(t *testing.T) {
	for _, arch := range []Arch{LinkedOwned, LinkedTTL} {
		t.Run(arch.String(), func(t *testing.T) {
			svc, tr := newTracedKV(t, arch, nil)
			warmReset(t, svc, tr, 8)
			keys := make([]string, 8)
			for i := range keys {
				keys[i] = workload.KeyName(i)
			}
			if _, err := svc.ReadBatch(keys); err != nil {
				t.Fatal(err)
			}
			want := meter.PathStats{Requests: 1, LinkedHits: 8}
			if got := svc.m.Path(); got != want {
				t.Errorf("warmed ReadBatch path = %+v, want %+v", got, want)
			}
		})
	}
}

// TestTierHitRatioParity pins the accounting both services now share: the
// hit ratio is counted at the tier call, so a read-only stream over a
// warmed cache that holds the whole working set reads exactly 1 under
// every caching design, whichever application runs on it.
func TestTierHitRatioParity(t *testing.T) {
	for _, arch := range []Arch{Remote, Linked, LinkedVersion, LinkedOwned} {
		kv, _ := newTracedKV(t, arch, nil)
		services := map[string]Service{"kv": kv, "catalog": newCatalogSvc(t, arch, ModeKV)}
		for name, svc := range services {
			t.Run(arch.String()+"/"+name, func(t *testing.T) {
				pass := func() {
					for i := 0; i < invKeys; i++ {
						if _, err := svc.Read(workload.KeyName(i)); err != nil {
							t.Fatal(err)
						}
					}
				}
				pass() // warm
				hits0, reads0 := svc.(hitRatioReporter).cacheStats()
				pass()
				pass()
				hits, reads := svc.(hitRatioReporter).cacheStats()
				if reads-reads0 != 2*invKeys || hits-hits0 != 2*invKeys {
					t.Errorf("warmed read-only stream: %d hits of %d reads, want %d of %d",
						hits-hits0, reads-reads0, 2*invKeys, 2*invKeys)
				}
			})
		}
	}
}

// TestTierSharedAcrossRequestsAllArchs drives one lane from several
// goroutines at once, as cmd/appserver's connections do, under both
// applications: the lane's tier and storage path are shared by every
// request on it, so nothing they hold may be per-request state. Every key
// is written once first and every write below writes the same value, so
// every read has one right answer however the writes interleave.
func TestTierSharedAcrossRequestsAllArchs(t *testing.T) {
	const keys, size = 8, 256
	for arch := Base; arch < numArchs; arch++ {
		t.Run(arch.String(), func(t *testing.T) {
			kv, _ := newTracedKV(t, arch, nil)
			for name, svc := range map[string]Service{"kv": kv, "catalog": newCatalogSvc(t, arch, ModeKV)} {
				t.Run(name, func(t *testing.T) { sharedLane(t, svc, keys, size) })
			}
		})
	}
}

// sharedLane is TestTierSharedAcrossRequestsAllArchs on one service.
func sharedLane(t *testing.T, svc Service, keys, size int) {
	want := make(map[string][]byte, keys)
	for i := 0; i < keys; i++ {
		key := workload.KeyName(i)
		if err := svc.Write(key, ValueFor(key, size)); err != nil {
			t.Fatal(err)
		}
		var err error
		if want[key], err = svc.Read(key); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				key := workload.KeyName((g + i) % keys)
				if i%5 == g%5 {
					if err := svc.Write(key, ValueFor(key, size)); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				got, err := svc.Read(key)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want[key]) {
					t.Errorf("read %s = %x, want %x", key, got, want[key])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestUnknownArchFailsAtConstruction: an architecture no tier implements
// is a configuration error, reported before the first request.
func TestUnknownArchFailsAtConstruction(t *testing.T) {
	if _, err := NewKVService(smallCfg(numArchs, meter.NewMeter())); err == nil {
		t.Error("NewKVService accepted an unknown architecture")
	}
	cfg := CatalogServiceConfig{ServiceConfig: smallCfg(numArchs, meter.NewMeter()), Tables: 4}
	if _, err := NewCatalogService(cfg); err == nil {
		t.Error("NewCatalogService accepted an unknown architecture")
	}
}

// The linked designs at tier level, over fakeRows.

// fakeRows is a versioned string store a tier reads through, counting the
// statements it serves (a batched load is one). during, when set, runs
// once inside the next load or batched load, after it has read its values:
// the probe for a write that lands while a fill is in flight.
type fakeRows struct {
	mu                    sync.Mutex
	data                  map[string]string
	vers                  map[string]uint64
	next                  uint64
	checks, loads, stores int
	during                func()
}

func newFakeRows(key, value string) *fakeRows {
	f := &fakeRows{data: map[string]string{}, vers: map[string]uint64{}}
	f.put(key, value)
	return f
}

// put writes key as a writer elsewhere would: storage only.
func (f *fakeRows) put(key, value string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.next++
	f.data[key], f.vers[key] = value, f.next
}

func (f *fakeRows) load(_ trace.SpanContext, key string) (string, []byte, error) {
	f.mu.Lock()
	f.loads++
	v, ok := f.data[key]
	during := f.during
	f.during = nil
	f.mu.Unlock()
	if during != nil {
		during()
	}
	if !ok {
		return v, nil, fmt.Errorf("no row for %q", key)
	}
	return v, nil, nil
}

// loadBatch loads keys in one statement; a missing row fails the whole
// batch, as a failed round trip would.
func (f *fakeRows) loadBatch(_ trace.SpanContext, keys []string) ([]string, []byte, error) {
	f.mu.Lock()
	f.loads++
	values := make([]string, len(keys))
	var err error
	for i, k := range keys {
		var ok bool
		if values[i], ok = f.data[k]; !ok && err == nil {
			err = fmt.Errorf("no row for %q", k)
		}
	}
	during := f.during
	f.during = nil
	f.mu.Unlock()
	if during != nil {
		during()
	}
	if err != nil {
		return nil, nil, err
	}
	return values, nil, nil
}

func (f *fakeRows) version(_ trace.SpanContext, key string) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.checks++
	return f.vers[key], nil
}

func (f *fakeRows) store(_ trace.SpanContext, key string, payload []byte) error {
	f.mu.Lock()
	f.stores++
	f.mu.Unlock()
	f.put(key, string(payload))
	return nil
}

// statements is how many statements f has served.
func (f *fakeRows) statements() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.checks + f.loads + f.stores
}

var (
	strKit   = objectKit[string]{sizeOf: func(k, v string) int64 { return int64(len(k) + len(v)) }}
	testLCfg = linkedcache.Config{CapacityBytes: 1 << 20}
)

// namedTier is one linked design over string objects.
type namedTier struct {
	arch Arch
	tier tier[string]
}

// newTestLinkedTier is a bare Linked tier with no fault layer.
func newTestLinkedTier() *linkedTier[string] {
	return &linkedTier[string]{guarded: newGuarded(testLCfg, strKit, 0, equal[struct{}])}
}

// ownedBy is a 64-shard map over nodes with every shard migrated to
// owner, so owner holds the lease on every key until a test moves a shard.
func ownedBy(owner string, nodes ...string) *cluster.ShardMap {
	smap, err := cluster.NewShardMap(64, nodes, 64)
	if err != nil {
		panic(err)
	}
	for s := 0; s < smap.Shards(); s++ {
		if smap.BeginMigration(s, owner) {
			smap.FinishMigration(s)
		}
	}
	return smap
}

// guardedTiers builds one of each design over the fill guard; nothing
// expires within a test from the TTL tier's hour.
func guardedTiers() []namedTier {
	return []namedTier{
		{Linked, newTestLinkedTier()},
		{LinkedVersion, newVersionTier(testLCfg, strKit)},
		{LinkedOwned, newOwnedTier("app0", ownedBy("app0", "app0"), testLCfg, strKit)},
		{LinkedTTL, newTTLTier(testLCfg, strKit, time.Hour)},
	}
}

func readTier(t *testing.T, tr tier[string], key string, src source[string]) (string, bool) {
	t.Helper()
	v, _, hit, err := tr.read(trace.SpanContext{}, key, src)
	if err != nil {
		t.Error(err)
	}
	return v, hit
}

// writeTier writes key through tr: kept where the tier writes through,
// dropped otherwise (through=false forces the drop).
func writeTier(t *testing.T, tr tier[string], key, v string, through bool, src source[string]) {
	t.Helper()
	if err := tryWrite(tr, key, v, through, src); err != nil {
		t.Error(err)
	}
}

func tryWrite(tr tier[string], key, v string, through bool, src source[string]) error {
	if wt, ok := tr.(writeThrough[string]); ok && through {
		return wt.write(trace.SpanContext{}, key, v, []byte(v), src)
	}
	return tr.drop(trace.SpanContext{}, key, []byte(v), src)
}

// TestTierStaleFillSuperseded: a write that lands while a read's fill is
// in flight supersedes the fill. The read overlapped the write, so the
// value it loaded is a linearizable answer for it — but not for the next
// read, which must see the write, not the pre-write value cached as a hit.
func TestTierStaleFillSuperseded(t *testing.T) {
	for _, through := range []bool{false, true} {
		for _, c := range guardedTiers() {
			if _, ok := c.tier.(writeThrough[string]); through && !ok {
				continue
			}
			t.Run(fmt.Sprintf("%v/writeThrough=%v", c.arch, through), func(t *testing.T) {
				src := newFakeRows("k", "old")
				src.during = func() { writeTier(t, c.tier, "k", "new", through, src) }
				if v, hit := readTier(t, c.tier, "k", src); v != "old" || hit {
					t.Fatalf("read the write overlapped = %q hit=%v, want the old value it loaded", v, hit)
				}
				if v, _ := readTier(t, c.tier, "k", src); v != "new" {
					t.Errorf("read after the write = %q, want %q: the superseded fill was cached", v, "new")
				}
			})
		}
	}
}

// TestTierNoJoinAfterSupersede: a read that starts after an invalidation
// never returns the value of a fill the invalidation superseded — it
// fills afresh instead of joining the one in flight.
func TestTierNoJoinAfterSupersede(t *testing.T) {
	for _, c := range guardedTiers() {
		t.Run(c.arch.String(), func(t *testing.T) {
			src := newFakeRows("k", "old")
			entered, gate := make(chan struct{}), make(chan struct{})
			src.during = func() { close(entered); <-gate }
			first, second := make(chan string, 1), make(chan string, 1)
			go func() { v, _ := readTier(t, c.tier, "k", src); first <- v }()
			<-entered // the fill has loaded "old" and is in flight
			writeTier(t, c.tier, "k", "new", false, src)
			go func() { v, _ := readTier(t, c.tier, "k", src); second <- v }()
			select {
			case v := <-second:
				if v != "new" {
					t.Errorf("read after the invalidation = %q, want new", v)
				}
			case <-time.After(time.Second):
				t.Error("a read that started after the invalidation joined the superseded fill")
			}
			close(gate)
			<-first
		})
	}
}

// TestTierBatchStaleFillSuperseded is TestTierStaleFillSuperseded for
// Linked's batched read: a write that lands inside the batch's storage
// load supersedes that key's fill, so the pre-write value it loaded is
// returned to the batch but never cached.
func TestTierBatchStaleFillSuperseded(t *testing.T) {
	for _, through := range []bool{false, true} {
		t.Run(fmt.Sprintf("writeThrough=%v", through), func(t *testing.T) {
			lt := newTestLinkedTier()
			src := newFakeRows("k", "old")
			src.put("j", "j0")
			src.during = func() { writeTier(t, lt, "k", "new", through, src) }
			values, _, hits, err := lt.readBatch(trace.SpanContext{}, []string{"j", "k"}, src)
			if err != nil || hits != 0 || values[0] != "j0" || values[1] != "old" {
				t.Fatalf("batch the write overlapped = %q, %d hits, %v; want [j0 old], 0 hits", values, hits, err)
			}
			if v, _ := readTier(t, lt, "k", src); v != "new" {
				t.Errorf("read after the write = %q, want %q: the superseded batch fill was cached", v, "new")
			}
			if v, hit := readTier(t, lt, "j", src); v != "j0" || !hit {
				t.Errorf("read of the batch's other key = %q hit=%v, want its cached j0", v, hit)
			}
		})
	}
}

// TestTierBatchLoadErrorReleasesFills: a batched load that fails releases
// every fill it registered. A later read of one of its keys loads afresh,
// rather than joining a fill that never completes.
func TestTierBatchLoadErrorReleasesFills(t *testing.T) {
	lt := newTestLinkedTier()
	src := newFakeRows("k", "v")
	if _, _, _, err := lt.readBatch(trace.SpanContext{}, []string{"k", "missing"}, src); err == nil {
		t.Fatal("batch over a missing row succeeded")
	}
	read := make(chan string, 1)
	go func() {
		v, _, hit, err := lt.read(trace.SpanContext{}, "k", src)
		if err != nil || hit {
			t.Errorf("read after the failed batch: hit=%v, %v; want a fresh load", hit, err)
		}
		read <- v
	}()
	select {
	case v := <-read:
		if v != "v" {
			t.Errorf("read after the failed batch = %q, want v", v)
		}
	case <-time.After(time.Second):
		t.Fatal("a read after the failed batch joined a fill the batch never released")
	}
}

// TestTierLastWriteWins: readers fill one key while a writer writes it
// again and again, through and dropped in turn. Once all have returned,
// the next read returns the last write: no fill that raced a write left
// its pre-write value behind.
func TestTierLastWriteWins(t *testing.T) {
	const writes = 50
	for _, c := range guardedTiers() {
		t.Run(c.arch.String(), func(t *testing.T) {
			src := newFakeRows("k", "w0")
			var wg sync.WaitGroup
			done := make(chan struct{})
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
							readTier(t, c.tier, "k", src)
						}
					}
				}()
			}
			for i := 1; i <= writes; i++ {
				writeTier(t, c.tier, "k", fmt.Sprint("w", i), i%2 == 0, src)
			}
			close(done)
			wg.Wait()
			if v, _ := readTier(t, c.tier, "k", src); v != fmt.Sprint("w", writes) {
				t.Errorf("read after quiescence = %q, want the last write w%d", v, writes)
			}
		})
	}
}

// TestTierStatementsPerOp pins the storage statements each linked design
// issues, and that each issues no statement whose result nothing
// reads: a cold miss is the version check plus the load on +Version and
// the load alone elsewhere; a warm hit is +Version's check and nothing
// elsewhere; a write is the store alone, kept or dropped.
func TestTierStatementsPerOp(t *testing.T) {
	want := map[Arch][2]int{Linked: {1, 0}, LinkedVersion: {2, 1}, LinkedOwned: {1, 0}, LinkedTTL: {1, 0}}
	for _, c := range guardedTiers() {
		t.Run(c.arch.String(), func(t *testing.T) {
			src := newFakeRows("k", "v")
			for i, w := range want[c.arch] {
				before := src.statements()
				if _, hit := readTier(t, c.tier, "k", src); hit != (i == 1) || src.statements()-before != w {
					t.Errorf("read %d: hit=%v, %d statements; want hit=%v, %d", i, hit, src.statements()-before, i == 1, w)
				}
			}
			for _, through := range []bool{false, true} {
				before := src.statements()
				writeTier(t, c.tier, "k", "w", through, src)
				if n := src.statements() - before; n != 1 {
					t.Errorf("write (through=%v): %d statements, want the store alone", through, n)
				}
			}
		})
	}
}

// migrate moves shard to node and completes the handoff.
func migrate(t *testing.T, smap *cluster.ShardMap, shard int, node string) {
	t.Helper()
	if !smap.BeginMigration(shard, node) || !smap.FinishMigration(shard) {
		t.Fatalf("migrating shard %d to %s refused", shard, node)
	}
}

// keyOnShard is the first key k<i> whose shard is (or, with want false,
// is not) shard.
func keyOnShard(smap *cluster.ShardMap, shard int, want bool) string {
	for i := 0; ; i++ {
		if k := fmt.Sprint("k", i); (smap.ShardOf(k) == shard) == want {
			return k
		}
	}
}

// TestTierOwnedReshard: a migration voids the moved shard's leases and
// no other. A key whose shard moved away and back re-reads the write its
// owner never saw, made by the owner it moved to; a key whose shard
// stayed is still served from the cache, with no statement.
func TestTierOwnedReshard(t *testing.T) {
	smap := ownedBy("app1", "app1", "app2")
	a := newOwnedTier("app1", smap, testLCfg, strKit)
	b := newOwnedTier("app2", smap, testLCfg, strKit)
	moved := smap.ShardOf("k0")
	mine, stay := keyOnShard(smap, moved, true), keyOnShard(smap, moved, false)
	src := newFakeRows(mine, "v1")
	src.put(stay, "v1")
	readTier(t, a, mine, src)
	readTier(t, a, stay, src)

	migrate(t, smap, moved, "app2")
	if _, _, _, err := a.read(trace.SpanContext{}, mine, src); !errors.Is(err, errNotOwner) {
		t.Errorf("app1 read of a key it no longer owns = %v, want errNotOwner", err)
	}
	writeTier(t, b, mine, "v2", true, src)
	migrate(t, smap, moved, "app1")

	if v, hit := readTier(t, a, mine, src); v != "v2" || hit {
		t.Errorf("app1 read after the shard came back = %q hit=%v, want app2's v2 from storage", v, hit)
	}
	before := src.statements()
	if v, hit := readTier(t, a, stay, src); v != "v1" || !hit || src.statements() != before {
		t.Errorf("read of a key on a shard that stayed = %q hit=%v, %d statements; want a cached v1 and none",
			v, hit, src.statements()-before)
	}
}

// TestTierOwnedRejectsForeignKeys: an owner serves only the keys whose
// shard it is the primary of, the moment a migration begins included. A
// read, write or drop of another node's key is refused before it reaches
// storage.
func TestTierOwnedRejectsForeignKeys(t *testing.T) {
	smap := ownedBy("app1", "app1", "app2")
	a := newOwnedTier("app1", smap, testLCfg, strKit)
	k := "k0"
	src := newFakeRows(k, "v")
	readTier(t, a, k, src)
	if !smap.BeginMigration(smap.ShardOf(k), "app2") {
		t.Fatal("migration refused")
	}
	before := src.statements()
	if _, _, _, err := a.read(trace.SpanContext{}, k, src); !errors.Is(err, errNotOwner) {
		t.Errorf("foreign read = %v, want errNotOwner", err)
	}
	if err := a.write(trace.SpanContext{}, k, "x", []byte("x"), src); !errors.Is(err, errNotOwner) {
		t.Errorf("foreign write = %v, want errNotOwner", err)
	}
	if err := a.drop(trace.SpanContext{}, k, []byte("x"), src); !errors.Is(err, errNotOwner) {
		t.Errorf("foreign drop = %v, want errNotOwner", err)
	}
	if n := src.statements() - before; n != 0 {
		t.Errorf("refused requests issued %d statements, want none", n)
	}
}

// TestTierOwnedHitAllocs: taking the lease costs a hit nothing a Linked
// hit does not pay.
func TestTierOwnedHitAllocs(t *testing.T) {
	src := newFakeRows("k", "v")
	hitAllocs := func(tr tier[string]) float64 {
		readTier(t, tr, "k", src)
		return testing.AllocsPerRun(200, func() {
			if _, _, hit, err := tr.read(trace.SpanContext{}, "k", src); !hit || err != nil {
				t.Fatalf("warm read: hit=%v, %v", hit, err)
			}
		})
	}
	owned := hitAllocs(newOwnedTier("app0", ownedBy("app0", "app0"), testLCfg, strKit))
	if linked := hitAllocs(newTestLinkedTier()); owned > linked {
		t.Errorf("+Owned hit allocates %.1f objects, Linked %.1f", owned, linked)
	}
}

// TestTierConsistencyRace hammers each linked design's one fill guard
// under -race: readers, write-throughs and drops on eight keys, and on
// +Owned a migration moving k0's shard away and back throughout, so its
// requests race lease changes and are refused while the shard is away.
// Once they drain, a write is durable against any straggling fill.
func TestTierConsistencyRace(t *testing.T) {
	for _, c := range guardedTiers() {
		t.Run(c.arch.String(), func(t *testing.T) {
			src := newFakeRows("k0", "v")
			for i := 1; i < 8; i++ {
				src.put(fmt.Sprint("k", i), "v")
			}
			check := func(err error) {
				if err != nil && !errors.Is(err, errNotOwner) {
					t.Error(err)
				}
			}
			var wg sync.WaitGroup
			stop := make(chan struct{})
			var moving sync.WaitGroup
			if c.arch == LinkedOwned {
				smap := ownedBy("app0", "app0", "app1")
				c.tier = newOwnedTier("app0", smap, testLCfg, strKit)
				moving.Add(1)
				go func() {
					defer moving.Done()
					s := smap.ShardOf("k0")
					for {
						select {
						case <-stop:
							return
						default:
						}
						for _, to := range []string{"app1", "app0"} {
							if !smap.BeginMigration(s, to) || !smap.FinishMigration(s) {
								t.Errorf("migrating shard %d to %s refused", s, to)
								return
							}
						}
					}
				}()
			}
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						key := fmt.Sprint("k", (g+i)%8)
						if g%2 == 0 {
							_, _, _, err := c.tier.read(trace.SpanContext{}, key, src)
							check(err)
						} else {
							check(tryWrite(c.tier, key, "w", i%3 != 0, src))
						}
					}
				}()
			}
			wg.Wait()
			close(stop)
			moving.Wait()
			writeTier(t, c.tier, "k0", "final", true, src)
			if v, _ := readTier(t, c.tier, "k0", src); v != "final" {
				t.Errorf("read after the final write = %q", v)
			}
		})
	}
}

// TestLinkedFaultedWriteDropsEntry: a write-through while the linked
// cache shard is faulted cannot install the new object, and must not
// leave the old one either: once the fault clears, a read would hit the
// pre-write object until it was evicted.
func TestLinkedFaultedWriteDropsEntry(t *testing.T) {
	m := meter.NewMeter()
	inj := fault.New(1, m)
	cfg := smallCfg(Linked, m)
	cfg.Faults = inj
	svc, err := NewKVService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := workload.KeyName(0)
	if err := svc.Preload([]PreloadItem{{Key: key, Size: 64}}); err != nil {
		t.Fatal(err)
	}
	before, after := ValueFor(key, 64), bytes.Repeat([]byte("w"), 64)
	if got, err := svc.Read(key); err != nil || !bytes.Equal(got, Digest(before)) {
		t.Fatalf("read before the fault = %x, %v", got, err)
	}
	inj.Kill(LinkedCacheNode)
	if err := svc.Write(key, after); err != nil {
		t.Fatal(err)
	}
	inj.Revive(LinkedCacheNode)
	if got, err := svc.Read(key); err != nil || !bytes.Equal(got, Digest(after)) {
		t.Fatalf("read after the fault cleared = %x, %v; want the faulted write's digest %x", got, err, Digest(after))
	}
}
