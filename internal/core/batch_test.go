package core

import (
	"bytes"
	"testing"
	"time"

	"cachecost/internal/fault"
	"cachecost/internal/meter"
	"cachecost/internal/trace/assert"
	"cachecost/internal/workload"
)

// ReadBatch must return exactly what B scalar Reads would, positionally —
// including duplicate keys and out-of-order batches — and WriteBatch must
// be visible to subsequent reads. Covers every architecture, including
// the consistency archs that serve batches through their per-key
// protocols.
func TestBatchReadWriteMatchesScalarAllArchs(t *testing.T) {
	for _, arch := range []Arch{Base, Remote, Linked, LinkedTTL, LinkedVersion, LinkedOwned} {
		t.Run(arch.String(), func(t *testing.T) {
			svc, _ := newTracedKV(t, arch, nil)
			keys := []string{
				workload.KeyName(5), workload.KeyName(0), workload.KeyName(5),
				workload.KeyName(9), workload.KeyName(3),
			}
			batched, err := svc.ReadBatch(keys)
			if err != nil {
				t.Fatal(err)
			}
			if len(batched) != len(keys) {
				t.Fatalf("got %d digests for %d keys", len(batched), len(keys))
			}
			for i, k := range keys {
				scalar, err := svc.Read(k)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(batched[i], scalar) {
					t.Fatalf("slot %d (%s): batch digest %x, scalar %x", i, k, batched[i], scalar)
				}
			}

			wkeys := []string{workload.KeyName(1), workload.KeyName(2)}
			wvals := [][]byte{ValueFor(wkeys[0]+"-b", 256), ValueFor(wkeys[1]+"-b", 256)}
			if err := svc.WriteBatch(wkeys, wvals); err != nil {
				t.Fatal(err)
			}
			for i, k := range wkeys {
				got, err := svc.Read(k)
				if err != nil {
					t.Fatal(err)
				}
				if want := Digest(wvals[i]); !bytes.Equal(got, want) {
					t.Fatalf("after WriteBatch, read %s = %x, want %x", k, got, want)
				}
			}

			if vs, err := svc.ReadBatch(nil); err != nil || vs != nil {
				t.Fatalf("empty batch = %v, %v", vs, err)
			}
			if err := svc.WriteBatch([]string{"k"}, nil); err == nil {
				t.Fatal("mismatched keys/values must error")
			}
		})
	}
}

// The batch path's trace invariants: a B-key batch is ONE client request
// whose per-message counts do NOT scale with B — that is the whole
// amortization claim. A warm Remote batch is still two cache messages
// (one MultiGet round trip), not 2B; a cold one adds one batched storage
// statement and one backfill round trip; a Base batch is one hop and one
// statement; a warm Linked batch never leaves the process.
func TestBatchTraceInvariants(t *testing.T) {
	const B = 8
	keys := func(lo, hi int) []string {
		out := make([]string, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, workload.KeyName(i))
		}
		return out
	}

	t.Run("RemoteWarm", func(t *testing.T) {
		svc, tr := newTracedKV(t, Remote, nil)
		warmReset(t, svc, tr, B)
		if _, err := svc.ReadBatch(keys(0, B)); err != nil {
			t.Fatal(err)
		}
		assert.PathPerOp(t, svc.m.Path(), 1, meter.PathStats{
			RPCHops: 1, CacheMsgs: 2, CacheHits: B})
		full := tr.Last()
		assert.Parented(t, full)
		assert.SpanCount(t, full, "remotecache", "multiget", 1)
		assert.NoSpans(t, full, "storage.sql", "")
		if t.Failed() {
			t.Log(assert.Describe(full))
		}
	})

	t.Run("RemoteCold", func(t *testing.T) {
		svc, tr := newTracedKV(t, Remote, nil)
		warmReset(t, svc, tr, B)
		if _, err := svc.ReadBatch(keys(B, 2*B)); err != nil {
			t.Fatal(err)
		}
		// MultiGet (all misses) + one batched storage statement + one
		// MultiSet backfill: 3 hops, 4 cache messages, 1 statement.
		assert.PathPerOp(t, svc.m.Path(), 1, meter.PathStats{
			RPCHops: 3, CacheMsgs: 4, SQLStatements: 1, CacheMisses: B})
		full := tr.Last()
		assert.Parented(t, full)
		assert.SpanCount(t, full, "remotecache", "multiget", 1)
		assert.SpanCount(t, full, "storage.sql", "parse", 1)
		assert.Annotated(t, full, "storage.sql", "parse", "batch.keys", "8")
		if t.Failed() {
			t.Log(assert.Describe(full))
		}
	})

	t.Run("Base", func(t *testing.T) {
		svc, tr := newTracedKV(t, Base, nil)
		warmReset(t, svc, tr, B)
		if _, err := svc.ReadBatch(keys(0, B)); err != nil {
			t.Fatal(err)
		}
		assert.PathPerOp(t, svc.m.Path(), 1, meter.PathStats{
			RPCHops: 1, SQLStatements: 1})
		full := tr.Last()
		assert.Parented(t, full)
		assert.Annotated(t, full, "app", "read", "batch.keys", "8")
		if t.Failed() {
			t.Log(assert.Describe(full))
		}
	})

	t.Run("LinkedWarm", func(t *testing.T) {
		svc, tr := newTracedKV(t, Linked, nil)
		warmReset(t, svc, tr, B)
		if _, err := svc.ReadBatch(keys(0, B)); err != nil {
			t.Fatal(err)
		}
		assert.PathPerOp(t, svc.m.Path(), 1, meter.PathStats{LinkedHits: B})
		full := tr.Last()
		assert.Parented(t, full)
		assert.NoSpans(t, full, "rpc", "")
		assert.NoSpans(t, full, "storage.sql", "")
		if t.Failed() {
			t.Log(assert.Describe(full))
		}
	})

	t.Run("RemoteWriteBatch", func(t *testing.T) {
		svc, tr := newTracedKV(t, Remote, nil)
		warmReset(t, svc, tr, B)
		ks := keys(0, 4)
		vals := make([][]byte, len(ks))
		for i, k := range ks {
			vals[i] = ValueFor(k+"-w", 256)
		}
		if err := svc.WriteBatch(ks, vals); err != nil {
			t.Fatal(err)
		}
		// Storage writes stay per-statement (4 hops, 4 statements, 2 raft
		// ships each); the lookaside invalidation collapses to ONE
		// MultiDelete round trip — 2 cache messages, not 8.
		assert.PathPerOp(t, svc.m.Path(), 1, meter.PathStats{
			RPCHops: 5, CacheMsgs: 2, SQLStatements: 4, RaftShips: 8})
		full := tr.Last()
		assert.Parented(t, full)
		assert.SpanCount(t, full, "remotecache", "multidelete", 1)
		if t.Failed() {
			t.Log(assert.Describe(full))
		}
	})
}

// A cache-node kill landing mid-run must not drop or double-count
// ops at any batch size: the batch demotes the dead node's keys to
// misses, serves them from one batched storage read, and every op is
// still driven exactly once (any failure would propagate as an error).
func TestBatchChaosDegradesToStorage(t *testing.T) {
	m := meter.NewMeter()
	inj := fault.New(5, m)
	gen := smallGen(21)
	cfg := smallCfg(Remote, m)
	cfg.Faults = inj
	svc, err := BuildKVService(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	const warmup, ops, B = 200, 800, 8
	sched := fault.NewSchedule([]fault.Event{
		{AtOp: warmup + ops*2/5, Node: CacheNode, Action: fault.ActKill},
		{AtOp: warmup + ops*3/5, Node: CacheNode, Action: fault.ActRevive},
	})
	started := 0
	res, err := RunExperimentCfg(svc, m, gen, RunConfig{
		Warmup: warmup, Ops: ops, BatchSize: B, Prices: meter.GCP,
		OnOp: func(int) { started++; sched.Step(inj) },
	})
	if err != nil {
		t.Fatal(err) // a dropped op would surface here
	}
	if started != warmup+ops {
		t.Fatalf("OnOp fired %d times, want exactly %d (one per op)", started, warmup+ops)
	}
	if res.Ops != ops {
		t.Fatalf("res.Ops = %d, want %d", res.Ops, ops)
	}
	if res.Path.Degraded == 0 {
		t.Fatal("the kill window should have demoted cache batch RPCs to misses")
	}
	if res.HitRatio <= 0 || res.HitRatio >= 1 {
		t.Fatalf("hit ratio %v should be interior: hits before/after the window, misses during", res.HitRatio)
	}
}

// The costing invariant must survive batching: at every batch size the
// busy time attributed across components stays within the metered wall
// clock (no double counting) and covers most of it (no blind spots).
func TestBatchMeteringConservation(t *testing.T) {
	if raceEnabled {
		t.Skip("measured cost ratios are distorted by race-detector instrumentation")
	}
	for _, arch := range []Arch{Base, Remote, Linked} {
		for _, B := range []int{4, 16} {
			m := meter.NewMeter()
			gen := smallGen(13)
			svc, err := BuildKVService(smallCfg(arch, m), gen)
			if err != nil {
				t.Fatal(err)
			}
			batch := func(count int) {
				ops := make([]workload.Op, B)
				for done := 0; done < count; done += B {
					for i := range ops {
						ops[i] = gen.Next()
					}
					if err := applyBatch(svc, ops); err != nil {
						t.Fatal(err)
					}
				}
			}
			batch(304)
			m.Reset()
			t0 := time.Now()
			batch(800)
			elapsed := time.Since(t0)
			busy := totalBusy(m)
			if busy > elapsed*105/100 {
				t.Fatalf("%v B=%d: attributed busy %v exceeds wall %v: double counting", arch, B, busy, elapsed)
			}
			if busy < elapsed*40/100 {
				t.Fatalf("%v B=%d: attributed busy %v is under 40%% of wall %v: blind spots", arch, B, busy, elapsed)
			}
		}
	}
}

// The batched parallel driver must deal every op exactly once across
// workers and keep per-worker batches on their own lanes.
func TestBatchParallelDriver(t *testing.T) {
	m := meter.NewMeter()
	gen := smallGen(17)
	cfg := smallCfg(Remote, m)
	cfg.Parallelism = 4
	svc, err := BuildKVService(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	const warmup, ops = 200, 1200
	started := 0
	res, err := RunExperimentCfg(svc, m, gen, RunConfig{
		Warmup: warmup, Ops: ops, Parallelism: 4, BatchSize: 8, Prices: meter.GCP,
		OnOp: func(int) { started++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if started != warmup+ops {
		t.Fatalf("OnOp fired %d times, want %d", started, warmup+ops)
	}
	if res.Parallelism != 4 {
		t.Fatalf("res.Parallelism = %d", res.Parallelism)
	}
	if res.HitRatio <= 0 {
		t.Fatalf("hit ratio = %v, want > 0", res.HitRatio)
	}
	if res.LatencyP99 <= 0 || res.Throughput <= 0 {
		t.Fatalf("latency/throughput not measured: p99=%v tput=%v", res.LatencyP99, res.Throughput)
	}
}
