package consistency_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cachecost/internal/core"
	"cachecost/internal/meter"
	"cachecost/internal/rpc"
	"cachecost/internal/storage"
	"cachecost/internal/trace"
	"cachecost/internal/workload"
)

// The consistent caches the paper prices — Linked+Version (§5.5), the §6
// ownership design and Linked+TTL (§7) — are tier policies of the front
// door in internal/core, tested there over a fake source. The tests here
// hold them to their guarantees end to end: an application server reads
// through its linked cache from a storage node that a second application
// server, a writer the first never hears from, also writes.

// ttl is core's Linked+TTL freshness bound.
const ttl = 500 * time.Millisecond

// keys is how many rows a fleet's storage holds: key(0) … key(keys-1).
const keys = 8

func key(i int) string { return fmt.Sprint("k", i) }

// answer is what a read of key answers after write i of it (0: the
// preloaded row).
func answer(key string, i int) []byte { return core.Digest(core.ValueFor(key, 64+i)) }

// fleet is two application servers over one storage node: app, under the
// design under test, over a probed link; and other, uncached, whose
// writes app never hears of.
type fleet struct {
	app, other *core.KVService
	m          *meter.Meter // app's: its Path is the path app's requests took
	link       *storeLink
}

// deploy builds a fleet with app under arch.
func deploy(arch core.Arch) (*fleet, error) {
	node := storage.NewNode(storage.Config{BlockCacheBytes: 1 << 20, Meter: meter.NewMeter()})
	connect := func(m *meter.Meter) rpc.TraceConn {
		return rpc.NewLoopback(node.Server(), m.Component("app"), meter.NewBurner(), rpc.DefaultCost)
	}
	am, om := meter.NewMeter(), meter.NewMeter()
	f := &fleet{m: am, link: &storeLink{next: connect(am)}}
	var err error
	if f.app, err = core.NewKVServiceRemote(core.ServiceConfig{
		Arch: arch, Meter: am, AppCacheBytes: 1 << 20,
	}, core.RemoteEndpoints{DB: f.link}); err != nil {
		return nil, err
	}
	if f.other, err = core.NewKVServiceRemote(core.ServiceConfig{Arch: core.Base, Meter: om},
		core.RemoteEndpoints{DB: connect(om)}); err != nil {
		return nil, err
	}
	items := make([]core.PreloadItem, keys)
	for i := range items {
		items[i] = core.PreloadItem{Key: key(i), Size: 64}
	}
	return f, f.other.Preload(items)
}

// VersionedCache deploys the §5.5 baseline: a fleet whose app server
// runs Linked+Version.
func VersionedCache() (*fleet, error) { return deploy(core.LinkedVersion) }

// OwnedCache deploys the §6 design: a fleet whose app server owns every
// key it caches.
func OwnedCache() (*fleet, error) { return deploy(core.LinkedOwned) }

func fleetOf(t *testing.T, arch core.Arch) *fleet {
	t.Helper()
	f, err := deploy(arch)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// read reads key on app and returns the answer and the path it took.
func (f *fleet) read(t *testing.T, key string) ([]byte, meter.PathStats) {
	t.Helper()
	f.m.Reset()
	got, err := f.app.Read(key)
	if err != nil {
		t.Fatalf("read %s: %v", key, err)
	}
	return got, f.m.Path()
}

// write makes write i of key through app and returns what a read of it
// answers and the path the write took.
func (f *fleet) write(t *testing.T, key string, i int) ([]byte, meter.PathStats) {
	t.Helper()
	f.m.Reset()
	if err := f.app.Write(key, core.ValueFor(key, 64+i)); err != nil {
		t.Fatalf("write %s: %v", key, err)
	}
	return answer(key, i), f.m.Path()
}

// writeElsewhere makes write i of key through other.
func (f *fleet) writeElsewhere(t *testing.T, key string, i int) []byte {
	t.Helper()
	if err := f.other.Write(key, core.ValueFor(key, 64+i)); err != nil {
		t.Fatalf("write %s elsewhere: %v", key, err)
	}
	return answer(key, i)
}

// pileOn runs n concurrent reads of key on app, all started while the
// first one's storage call is held, and returns their answers and errors.
func (f *fleet) pileOn(key string, n int, fail error) ([][]byte, []error) {
	gate := make(chan struct{})
	f.link.set(fail, func() { <-gate })
	got, errs := make([][]byte, n), make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = f.app.Read(key)
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the readers pile onto the held call
	close(gate)
	wg.Wait()
	f.link.set(nil, nil)
	return got, errs
}

// storeLink is app's connection to storage, with two probes. While fail
// is set, every call fails before it reaches storage. after, when set,
// runs once, when the next call returns and before app sees its response:
// the probe for a write that lands while a fill is in flight.
type storeLink struct {
	next  rpc.TraceConn
	mu    sync.Mutex
	fail  error
	after func()
}

func (l *storeLink) set(fail error, after func()) {
	l.mu.Lock()
	l.fail, l.after = fail, after
	l.mu.Unlock()
}

func (l *storeLink) Call(method string, req []byte) ([]byte, error) {
	return l.CallCtx(trace.SpanContext{}, method, req)
}

func (l *storeLink) CallCtx(sc trace.SpanContext, method string, req []byte) (resp []byte, err error) {
	l.mu.Lock()
	fail, after := l.fail, l.after
	l.after = nil
	l.mu.Unlock()
	if err = fail; err == nil {
		resp, err = l.next.CallCtx(sc, method, req)
	}
	if after != nil {
		after()
	}
	return resp, err
}

func (l *storeLink) Close() error { return l.next.Close() }

// Linked+Version.

func TestVersionedReadMissThenHit(t *testing.T) {
	f := fleetOf(t, core.LinkedVersion)
	got, p := f.read(t, "k0")
	if !bytes.Equal(got, answer("k0", 0)) || p.LinkedMisses != 1 || p.SQLStatements != 2 {
		t.Fatalf("cold read = %x, %+v; want a miss: the version check and the load", got, p)
	}
	got, p = f.read(t, "k0")
	if !bytes.Equal(got, answer("k0", 0)) || p.LinkedHits != 1 || p.SQLStatements != 1 {
		t.Fatalf("warm read = %x, %+v; want a hit paying the version check alone", got, p)
	}
}

func TestVersionedReadSeesNewWritesImmediately(t *testing.T) {
	f := fleetOf(t, core.LinkedVersion)
	f.read(t, "k0")
	want := f.writeElsewhere(t, "k0", 1)
	if got, p := f.read(t, "k0"); !bytes.Equal(got, want) || p.LinkedMisses != 1 {
		t.Fatalf("read after a write elsewhere = %x, %+v; want a reload of %x", got, p, want)
	}
}

func TestVersionedLinearizabilityUnderRandomWrites(t *testing.T) {
	f := fleetOf(t, core.LinkedVersion)
	rng := rand.New(rand.NewSource(1))
	want := map[string][]byte{}
	for i := 0; i < keys; i++ {
		want[key(i)] = answer(key(i), 0)
	}
	for i := 1; i <= 200; i++ {
		k := key(rng.Intn(keys))
		switch rng.Intn(3) {
		case 0:
			want[k] = f.writeElsewhere(t, k, i)
		case 1:
			want[k], _ = f.write(t, k, i)
		}
		if got, _ := f.read(t, k); !bytes.Equal(got, want[k]) {
			t.Fatalf("step %d: read %s = %x, want the latest write's %x", i, k, got, want[k])
		}
	}
}

func TestVersionedInvalidate(t *testing.T) {
	f := fleetOf(t, core.LinkedVersion)
	f.read(t, "k0")
	want, p := f.write(t, "k0", 1)
	if p.SQLStatements != 1 {
		t.Errorf("write: %d statements, want the store alone", p.SQLStatements)
	}
	if got, p := f.read(t, "k0"); !bytes.Equal(got, want) || p.LinkedMisses != 1 || p.SQLStatements != 2 {
		t.Fatalf("read after the write = %x, %+v; want a reload of %x", got, p, want)
	}
}

func TestVersionedErrorPropagation(t *testing.T) {
	f := fleetOf(t, core.LinkedVersion)
	f.read(t, "k0")
	f.link.set(errors.New("storage unreachable"), nil)
	if _, err := f.app.Read("k0"); err == nil {
		t.Error("a cached read was served with its version check failing")
	}
	f.link.set(nil, nil)
	if _, err := f.app.Read("missing"); err == nil {
		t.Error("a read of a missing row succeeded")
	}
	if got, _ := f.read(t, "k0"); !bytes.Equal(got, answer("k0", 0)) {
		t.Errorf("read once storage is back = %x", got)
	}
}

// The §6 ownership design.

func TestOwnedReadSkipsStorageAfterFirstLoad(t *testing.T) {
	f := fleetOf(t, core.LinkedOwned)
	if _, p := f.read(t, "k0"); p.LinkedMisses != 1 || p.SQLStatements != 1 {
		t.Fatalf("first read: %+v, want a miss paying the load alone", p)
	}
	for i := 0; i < 100; i++ {
		if got, p := f.read(t, "k0"); !bytes.Equal(got, answer("k0", 0)) || p.LinkedHits != 1 || p.SQLStatements != 0 {
			t.Fatalf("read %d = %x, %+v; want a hit with no storage contact", i, got, p)
		}
	}
}

func TestOwnedWriteThroughKeepsLinearizability(t *testing.T) {
	f := fleetOf(t, core.LinkedOwned)
	f.read(t, "k0")
	for i := 1; i <= 50; i++ {
		want, p := f.write(t, "k0", i)
		if p.SQLStatements != 1 {
			t.Fatalf("owner-routed write %d: %d statements, want the store alone", i, p.SQLStatements)
		}
		if got, p := f.read(t, "k0"); !bytes.Equal(got, want) || p.LinkedHits != 1 || p.SQLStatements != 0 {
			t.Fatalf("read after write %d = %x, %+v; want a hit on %x", i, got, p, want)
		}
	}
}

func TestOwnedVsVersionedStorageTraffic(t *testing.T) {
	// The same stream under both designs: every write routes through app.
	// +Version pays a check per read and reloads what each write dropped;
	// the owner pays neither, so it saves at least one statement per read.
	run := func(arch core.Arch) (reads, statements int64) {
		f := fleetOf(t, arch)
		rng := rand.New(rand.NewSource(7))
		want := map[string][]byte{}
		for i := 0; i < keys; i++ {
			want[key(i)] = answer(key(i), 0)
		}
		for i := 1; i <= 300; i++ {
			k := key(rng.Intn(keys))
			var p meter.PathStats
			if rng.Intn(10) == 0 {
				want[k], p = f.write(t, k, i)
			} else {
				var got []byte
				if got, p = f.read(t, k); !bytes.Equal(got, want[k]) {
					t.Fatalf("%v: read %s = %x, want %x", arch, k, got, want[k])
				}
				reads++
			}
			statements += p.SQLStatements
		}
		return reads, statements
	}
	reads, versioned := run(core.LinkedVersion)
	_, owned := run(core.LinkedOwned)
	if owned > versioned-reads {
		t.Errorf("%d reads: +Owned %d statements, +Version %d; want at least one fewer per read", reads, owned, versioned)
	}
}

// Linked+TTL.

func TestTTLCheaperThanVersioned(t *testing.T) {
	warmReads := func(arch core.Arch) (statements int64) {
		f := fleetOf(t, arch)
		for i := 0; i < keys; i++ {
			f.read(t, key(i))
		}
		for i := 0; i < 100; i++ {
			_, p := f.read(t, key(i%keys))
			statements += p.SQLStatements
		}
		return statements
	}
	if v, l := warmReads(core.LinkedVersion), warmReads(core.LinkedTTL); v != 100 || l != 0 {
		t.Errorf("100 warm reads: +Version %d statements, +TTL %d; want a version check each, and none", v, l)
	}
}

func TestTTLCoalescesConcurrentLoads(t *testing.T) {
	f := fleetOf(t, core.LinkedTTL)
	f.m.Reset()
	got, errs := f.pileOn("k0", 8, nil)
	for i := range got {
		if errs[i] != nil || !bytes.Equal(got[i], answer("k0", 0)) {
			t.Errorf("reader %d = %x, %v", i, got[i], errs[i])
		}
	}
	// A reader arriving after the load finished hits its entry, so the
	// one load is the only statement whatever the interleaving.
	if p := f.m.Path(); p.SQLStatements != 1 {
		t.Errorf("8 concurrent readers of a cold key: %d statements, want 1", p.SQLStatements)
	}
}

func TestTTLCoalescedLoadError(t *testing.T) {
	f := fleetOf(t, core.LinkedTTL)
	down := errors.New("storage down")
	_, errs := f.pileOn("k0", 8, down)
	for i, err := range errs {
		if err == nil {
			t.Errorf("reader %d succeeded on a failing load", i)
		}
	}
	if got, p := f.read(t, "k0"); !bytes.Equal(got, answer("k0", 0)) || p.LinkedMisses != 1 {
		t.Errorf("read after the failure = %x, %+v; want a fresh load: a failed one caches nothing", got, p)
	}
}

func TestTTLInvalidate(t *testing.T) {
	// A catalog write refreshes part of the object, so it drops the entry.
	m := meter.NewMeter()
	svc, err := core.NewCatalogService(core.CatalogServiceConfig{
		ServiceConfig: core.ServiceConfig{Arch: core.LinkedTTL, Meter: m,
			StorageCacheBytes: 1 << 20, AppCacheBytes: 1 << 20},
		Mode: core.ModeKV, Tables: 4, StatsBytes: 1 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	k := workload.KeyName(1)
	read := func() ([]byte, meter.PathStats) {
		m.Reset()
		got, err := svc.Read(k)
		if err != nil {
			t.Fatal(err)
		}
		return got, m.Path()
	}
	before, _ := read()
	if _, p := read(); p.LinkedHits != 1 {
		t.Fatalf("second read: %+v, want a hit", p)
	}
	if err := svc.Write(k, core.ValueFor("new-stats", 512)); err != nil {
		t.Fatal(err)
	}
	if after, p := read(); bytes.Equal(after, before) || p.LinkedMisses != 1 {
		t.Errorf("read after the write: %+v, summary changed=%v; want a reload of the new object", p, !bytes.Equal(after, before))
	}
}

func TestTTLServesWithinBound(t *testing.T) {
	f := fleetOf(t, core.LinkedTTL)
	if _, p := f.read(t, "k0"); p.LinkedMisses != 1 || p.SQLStatements != 1 {
		t.Fatalf("cold read: %+v, want a miss paying the load alone", p)
	}
	want := f.writeElsewhere(t, "k0", 1)
	if got, p := f.read(t, "k0"); !bytes.Equal(got, answer("k0", 0)) || p.LinkedHits != 1 || p.SQLStatements != 0 {
		t.Fatalf("read within the bound = %x, %+v; want a hit on the cached value, no storage contact", got, p)
	}
	time.Sleep(ttl)
	if got, p := f.read(t, "k0"); !bytes.Equal(got, want) || p.LinkedMisses != 1 {
		t.Fatalf("read past the bound = %x, %+v; want a reload of %x", got, p, want)
	}
}

func TestTTLStalenessNeverExceedsBound(t *testing.T) {
	// Property: a read serves a value that was still current at some
	// instant within the TTL before it started. Each value's supersede
	// time is taken after the superseding write returns, so it is never
	// earlier than the true one and the check cannot fail spuriously.
	f := fleetOf(t, core.LinkedTTL)
	superseded := map[string]time.Time{}
	current := answer("k0", 0)
	for i := 1; i <= 24; i++ {
		if i%3 == 0 {
			next := f.writeElsewhere(t, "k0", i)
			superseded[string(current)], current = time.Now(), next
		}
		time.Sleep(time.Duration(1+i%5) * 20 * time.Millisecond)
		start := time.Now()
		got, _ := f.read(t, "k0")
		at, stale := superseded[string(got)]
		switch {
		case !stale && !bytes.Equal(got, current):
			t.Fatalf("read %d served %x, which was never written", i, got)
		case stale && start.Sub(at) >= ttl:
			t.Fatalf("read %d served a value superseded %v before it started (TTL %v)", i, start.Sub(at), ttl)
		}
	}
}

func TestTTLWriteResetsAge(t *testing.T) {
	f := fleetOf(t, core.LinkedTTL)
	f.read(t, "k0")
	time.Sleep(ttl - 100*time.Millisecond)
	want, p := f.write(t, "k0", 1)
	if p.SQLStatements != 1 {
		t.Errorf("write-through: %d statements, want the store alone", p.SQLStatements)
	}
	time.Sleep(150 * time.Millisecond) // the fill is past the bound now; the write is not
	if got, p := f.read(t, "k0"); !bytes.Equal(got, want) || p.LinkedHits != 1 || p.SQLStatements != 0 {
		t.Fatalf("read after the write-through = %x, %+v; want a hit on %x", got, p, want)
	}
}

func TestTTLWriteDuringFlightNotClobbered(t *testing.T) {
	// The write lands after the fill loaded the old value and before the
	// fill returns: the read it overlapped may answer the old value, but
	// the fill must not cache it over the write.
	f := fleetOf(t, core.LinkedTTL)
	f.link.set(nil, func() {
		if err := f.app.Write("k0", core.ValueFor("k0", 65)); err != nil {
			t.Error(err)
		}
	})
	if got, _ := f.read(t, "k0"); !bytes.Equal(got, answer("k0", 0)) {
		t.Fatalf("the read the write overlapped = %x, want the value it loaded", got)
	}
	if got, _ := f.read(t, "k0"); !bytes.Equal(got, answer("k0", 1)) {
		t.Errorf("read after the write = %x, want %x: the superseded fill clobbered it", got, answer("k0", 1))
	}
}

func TestTTLConcurrentReadWriteRace(t *testing.T) {
	// Readers and write-throughs on the same keys at once, under -race;
	// once they drain, a write is durable against any straggling fill.
	f := fleetOf(t, core.LinkedTTL)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := key((g + i) % 4)
				var err error
				if g%2 == 0 {
					_, err = f.app.Read(k)
				} else {
					err = f.app.Write(k, core.ValueFor(k, 64+i))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	want, _ := f.write(t, "k0", 1000)
	if got, p := f.read(t, "k0"); !bytes.Equal(got, want) || p.LinkedHits != 1 {
		t.Errorf("read after the final write = %x, %+v; want a hit on %x", got, p, want)
	}
}
