package core

import (
	"fmt"
	"sync"
	"testing"

	"cachecost/internal/fault"
	"cachecost/internal/meter"
	"cachecost/internal/trace"
	"cachecost/internal/trace/assert"
	"cachecost/internal/workload"
)

// The tests in this file replay each architecture against the paper's
// path model (§2, Fig. 1) and assert the exact message and statement
// counts the cost analysis is built on. If an instrumentation change or
// a refactor adds a hop — or silently drops one — these fail before any
// cost table shifts.

const invKeys = 16

// newTracedKV builds a service with a sampling tracer and a preloaded
// 16-key store. mutate adjusts the config before construction.
func newTracedKV(t *testing.T, arch Arch, mutate func(*ServiceConfig)) (*KVService, *trace.Tracer) {
	t.Helper()
	m := meter.NewMeter()
	tr := trace.New(trace.Config{Capacity: 256})
	cfg := ServiceConfig{
		Arch:              arch,
		Meter:             m,
		Tracer:            tr,
		StorageCacheBytes: 256 << 10,
		AppCacheBytes:     256 << 10,
		RemoteCacheBytes:  256 << 10,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	svc, err := NewKVService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]PreloadItem, invKeys)
	for i := range items {
		items[i] = PreloadItem{Key: workload.KeyName(i), Size: 256}
	}
	if err := svc.Preload(items); err != nil {
		t.Fatal(err)
	}
	return svc, tr
}

// warmReset reads keys [0, n) once to populate caches, then clears the
// meter and the trace ring so assertions observe only what follows.
func warmReset(t *testing.T, svc *KVService, tr *trace.Tracer, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := svc.Read(workload.KeyName(i)); err != nil {
			t.Fatal(err)
		}
	}
	svc.m.Reset()
	tr.ResetTraces()
}

func readKeys(t *testing.T, svc *KVService, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if _, err := svc.Read(workload.KeyName(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// Base read: one app→storage RPC carrying one SQL statement, served
// under the storage leader's read lease. No cache anywhere.
func TestTraceInvariantBaseRead(t *testing.T) {
	svc, tr := newTracedKV(t, Base, nil)
	warmReset(t, svc, tr, 8)
	readKeys(t, svc, 0, 8)

	assert.PathPerOp(t, svc.m.Path(), 8, meter.PathStats{RPCHops: 1, SQLStatements: 1})
	full := tr.Last()
	assert.Parented(t, full)
	assert.SpanCount(t, full, "rpc", "sql.Query", 1)
	assert.Annotated(t, full, "rpc", "sql.Query", "rpc.hop", "loopback")
	assert.SpanCount(t, full, "storage.sql", "parse", 1)
	assert.SpanCount(t, full, "storage.raft", "lease", 1)
	assert.NoSpans(t, full, "app.cache", "")
	assert.NoSpans(t, full, "remotecache", "")
	if t.Failed() {
		t.Log(assert.Describe(full))
	}
}

// Remote hit: one hop to the cache tier, two cache messages (request
// and response), and the storage tier never sees the key.
func TestTraceInvariantRemoteHit(t *testing.T) {
	svc, tr := newTracedKV(t, Remote, nil)
	warmReset(t, svc, tr, 8) // first touch fills the lookaside cache
	readKeys(t, svc, 0, 8)

	assert.PathPerOp(t, svc.m.Path(), 8, meter.PathStats{RPCHops: 1, CacheMsgs: 2, CacheHits: 1})
	full := tr.Last()
	assert.Parented(t, full)
	assert.Annotated(t, full, "remotecache", "get", "cache.hit", "true")
	assert.NoSpans(t, full, "storage.sql", "")
	if t.Failed() {
		t.Log(assert.Describe(full))
	}
}

// Remote miss: get (miss) + storage load + set-fill — three hops, four
// cache messages, one SQL statement.
func TestTraceInvariantRemoteMiss(t *testing.T) {
	svc, tr := newTracedKV(t, Remote, nil)
	warmReset(t, svc, tr, 8)
	readKeys(t, svc, 8, 16) // never-touched keys: every read misses

	assert.PathPerOp(t, svc.m.Path(), 8, meter.PathStats{
		RPCHops: 3, CacheMsgs: 4, SQLStatements: 1, CacheMisses: 1})
	full := tr.Last()
	assert.Parented(t, full)
	assert.Annotated(t, full, "remotecache", "get", "cache.hit", "false")
	assert.SpanCount(t, full, "remotecache", "set", 1)
	assert.SpanCount(t, full, "storage.sql", "parse", 1)
	if t.Failed() {
		t.Log(assert.Describe(full))
	}
}

// Linked hit: the cache is in-process, so a warm read is zero network
// hops and zero statements — the paper's headline saving.
func TestTraceInvariantLinkedHit(t *testing.T) {
	svc, tr := newTracedKV(t, Linked, nil)
	warmReset(t, svc, tr, 8)
	readKeys(t, svc, 0, 8)

	assert.PathPerOp(t, svc.m.Path(), 8, meter.PathStats{LinkedHits: 1})
	full := tr.Last()
	assert.Parented(t, full)
	assert.Annotated(t, full, "app.cache", "read", "cache.hit", "true")
	assert.NoSpans(t, full, "rpc", "")
	assert.NoSpans(t, full, "storage.sql", "")
	if t.Failed() {
		t.Log(assert.Describe(full))
	}
}

// Linked+Version warm read: the hit still costs one storage round-trip
// for the version check (§4's consistency tax), visible as one hop and
// one version-check statement under the cache span.
func TestTraceInvariantLinkedVersionRead(t *testing.T) {
	svc, tr := newTracedKV(t, LinkedVersion, nil)
	warmReset(t, svc, tr, 8)
	readKeys(t, svc, 0, 8)

	assert.PathPerOp(t, svc.m.Path(), 8, meter.PathStats{
		RPCHops: 1, SQLStatements: 1, LinkedHits: 1})
	full := tr.Last()
	assert.Parented(t, full)
	assert.Annotated(t, full, "app.cache", "read", "cache.hit", "true")
	assert.Annotated(t, full, "storage.sql", "parse", "sql.op", "version-check")
	if t.Failed() {
		t.Log(assert.Describe(full))
	}
}

// Write fan-out: one app→storage RPC, one statement, and the leader
// ships the entry to N_r−1 = 2 followers before acking.
func TestTraceInvariantWriteFanout(t *testing.T) {
	svc, tr := newTracedKV(t, Base, nil)
	warmReset(t, svc, tr, 8)
	for i := 0; i < 4; i++ {
		key := workload.KeyName(i)
		if err := svc.Write(key, ValueFor(key+"-w", 256)); err != nil {
			t.Fatal(err)
		}
	}

	assert.PathPerOp(t, svc.m.Path(), 4, meter.PathStats{
		RPCHops: 1, SQLStatements: 1, RaftShips: 2})
	full := tr.Last()
	assert.Parented(t, full)
	assert.Annotated(t, full, "storage.raft", "propose", "raft.fanout", "2")
	assert.SpanCount(t, full, "storage.raft", "ship", 2)
	if t.Failed() {
		t.Log(assert.Describe(full))
	}
}

// Chaos degradation: with the in-process cache shard erroring on every
// access, a Linked read records the fault and falls through to storage —
// the trace shows the fault span plus the Base-shaped storage path, and
// the cache itself is never consulted.
func TestTraceInvariantChaosDegraded(t *testing.T) {
	svc, tr := newTracedKV(t, Linked, func(cfg *ServiceConfig) {
		inj := fault.New(1, cfg.Meter)
		inj.SetRule(LinkedCacheNode, fault.Rule{ErrorRate: 1})
		cfg.Faults = inj
	})
	warmReset(t, svc, tr, 8)
	readKeys(t, svc, 0, 8)

	assert.PathPerOp(t, svc.m.Path(), 8, meter.PathStats{
		Faults: 1, RPCHops: 1, SQLStatements: 1})
	full := tr.Last()
	assert.Parented(t, full)
	assert.Annotated(t, full, "fault", LinkedCacheNode, "fault.outcome", "error")
	assert.SpanCount(t, full, "storage.sql", "parse", 1)
	assert.NoSpans(t, full, "app.cache", "")
	if t.Failed() {
		t.Log(assert.Describe(full))
	}
}

// TestTraceMatrix drives every architecture and consistency mode at
// parallelism 1 and 8 and asserts no completed trace ever interleaves
// spans from another request: exactly one root, every parent resolves
// inside the trace, and the request count matches the ops driven. Runs
// under -race in CI.
func TestTraceMatrix(t *testing.T) {
	type cell struct {
		arch Arch
		par  int
	}
	var cells []cell
	for _, arch := range []Arch{Base, Remote, Linked, LinkedTTL, LinkedVersion, LinkedOwned} {
		cells = append(cells, cell{arch, 1}, cell{arch, 8})
	}
	for _, c := range cells {
		c := c
		t.Run(fmt.Sprintf("%v/p%d", c.arch, c.par), func(t *testing.T) {
			svc, tr := newTracedKV(t, c.arch, func(cfg *ServiceConfig) {
				cfg.Parallelism = c.par
			})
			const perWorker = 24
			var wg sync.WaitGroup
			errs := make(chan error, c.par)
			for w := 0; w < c.par; w++ {
				var sw ServiceWorker = svc // parallelism 1: the default lane
				if c.par > 1 {
					var err error
					if sw, err = svc.Worker(w); err != nil {
						t.Fatal(err)
					}
				}
				wg.Add(1)
				go func(w int, sw ServiceWorker) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						key := workload.KeyName((w*perWorker + i) % invKeys)
						if i%4 == 3 {
							if err := sw.Write(key, ValueFor(key, 256)); err != nil {
								errs <- err
								return
							}
							continue
						}
						if _, err := sw.Read(key); err != nil {
							errs <- err
							return
						}
					}
				}(w, sw)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if got := svc.m.Path().Requests; got != int64(c.par*perWorker) {
				t.Errorf("counted %d requests, want %d", got, c.par*perWorker)
			}
			traces := tr.Traces()
			if len(traces) == 0 {
				t.Fatal("no traces recorded")
			}
			for _, full := range traces {
				assert.Parented(t, full)
				if t.Failed() {
					t.Fatalf("interleaved trace:\n%s", assert.Describe(full))
				}
			}
		})
	}
}

// TestPathExactWithoutTracer: a run's path counts are its lanes', not a
// tracer's, so a fig4a cell with no tracer reports the same Path as the
// same cell with a tracer that never samples, on every architecture.
func TestPathExactWithoutTracer(t *testing.T) {
	cfg := workload.SyntheticConfig{Keys: 300, Alpha: 1.2, ReadRatio: 0.9, ValueSize: 1 << 10, Seed: 3}
	for arch := Base; arch < numArchs; arch++ {
		var paths [2]meter.PathStats
		for i, tr := range []*trace.Tracer{nil, trace.New(trace.Config{SampleEvery: 1 << 30, Capacity: 1})} {
			o := FigOptions{Ops: 400, Warmup: 150, Keys: cfg.Keys, Tracer: tr}
			o.applyDefaults()
			res, err := o.runCell("", o.synthCell(arch, cfg))
			if err != nil {
				t.Fatalf("%v: %v", arch, err)
			}
			paths[i] = res.Path
		}
		if paths[0] != paths[1] || paths[0].Requests != 400 {
			t.Errorf("%v: path without a tracer %+v, with one %+v; want equal, 400 requests", arch, paths[0], paths[1])
		}
	}
}
