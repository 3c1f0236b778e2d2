package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"time"

	"cachecost/internal/core"
	"cachecost/internal/meter"
	"cachecost/internal/remotecache"
	"cachecost/internal/wire"
	"cachecost/internal/workload"
)

// inputs is everything drawn from the seed before timing: the key
// population with its values, and the op stream. Ops are packed as
// key index << 1 | write bit so the stream adds no pointers to the heap
// the measured program's collector walks.
type inputs struct {
	items   []core.PreloadItem
	keys    []string
	values  [][]byte // core.ValueFor(key, size): what writes send
	digests [][]byte // core.Digest(value): what a correct read returns
	warm    []uint32
	stream  []uint32
	// digest identifies the drawn warm-up and window streams.
	digest [sha256.Size]byte
}

func newGenerator(sp spec, seed int64) workload.Generator {
	if sp.meta {
		return workload.NewMetaKV(workload.MetaKVConfig{Keys: sp.keys, Seed: seed})
	}
	return workload.NewSynthetic(workload.SyntheticConfig{
		Keys: sp.keys, Alpha: sp.alpha, ReadRatio: sp.readRatio, ValueSize: sp.valueSize, Seed: seed,
	})
}

func drawInputs(sp spec, seed int64) (*inputs, error) {
	gen := newGenerator(sp, seed)
	items, err := core.PreloadItems(gen)
	if err != nil {
		return nil, err
	}
	in := &inputs{items: items}
	for _, it := range items {
		v := core.ValueFor(it.Key, it.Size)
		in.keys = append(in.keys, it.Key)
		in.values = append(in.values, v)
		in.digests = append(in.digests, core.Digest(v))
	}
	h := sha256.New()
	draw := func(n int) ([]uint32, error) {
		ops := make([]uint32, n)
		for i := range ops {
			op := gen.Next()
			k, err := strconv.Atoi(op.Key[len("key-"):])
			if err != nil || k >= len(in.keys) || in.keys[k] != op.Key {
				return nil, fmt.Errorf("bench: generator key %q is outside the preloaded population", op.Key)
			}
			ops[i] = uint32(k) << 1
			if op.Kind == workload.Write {
				ops[i] |= 1
			}
		}
		binary.Write(h, binary.LittleEndian, ops) // a hash.Hash never fails a write
		return ops, nil
	}
	if sp.arch == core.Linked {
		// Read every key once so the window's hit ratio is exactly 1.
		in.warm = make([]uint32, len(in.keys))
		for k := range in.warm {
			in.warm[k] = uint32(k) << 1
		}
	} else if in.warm, err = draw(sp.warmOps); err != nil {
		return nil, err
	}
	if in.stream, err = draw(sp.streamOps); err != nil {
		return nil, err
	}
	h.Sum(in.digest[:0])
	return in, nil
}

// runner drives one assembled deployment with one set of inputs.
type runner struct {
	sp  spec
	in  *inputs
	d   *deployment
	pos int // next op of in.stream; the window cycles the stream

	// Socket workload: requests pre-encoded the way cmd/loadgen sends
	// them, so the benchmark's own encoding stays out of the numbers.
	readReq, writeReq [][]byte

	lat               []int64  // per-op latency scratch, one slice's worth
	tracedOps         []uint32 // op of every traced request, by request id
	attempted, failed int64
	hits, misses      int64 // cache-tier lookups over every measured slice
}

// setUp assembles sp's deployment and warms it: the part of a run that
// setup_s times.
func setUp(sp spec, in *inputs) (*runner, error) {
	d, err := assemble(sp, in.items)
	if err != nil {
		return nil, err
	}
	d.m.SetThreadCPUClock(!sp.tcp) // the driving goroutine is pinned by runWorkload
	r := &runner{sp: sp, in: in, d: d, lat: make([]int64, sp.sliceOps)}
	if sp.tcp {
		for k, key := range in.keys {
			r.readReq = append(r.readReq, wire.Marshal(&remotecache.GetRequest{Key: key}))
			r.writeReq = append(r.writeReq, wire.Marshal(&remotecache.SetRequest{Key: key, Value: in.values[k]}))
		}
	}
	if d.cache != nil {
		// Start from a full cache, as an operator warms a fleet before
		// shifting traffic: the warm-up ops then only have to pull the hot
		// keys in, and the hit ratio does not drift across the window.
		for k, key := range in.keys {
			d.cache.Preload(key, in.values[k])
		}
	}
	if bad := r.run(in.warm, nil, false); bad > 0 {
		d.close()
		return nil, fmt.Errorf("bench: %d of %d warm-up ops failed", bad, len(in.warm))
	}
	return r, nil
}

// do executes one op against the in-process service and checks a read's
// bytes.
func (r *runner) do(op uint32) bool {
	k := op >> 1
	if op&1 == 1 {
		return r.d.svc.Write(r.in.keys[k], r.in.values[k]) == nil
	}
	v, err := r.d.svc.Read(r.in.keys[k])
	return err == nil && bytes.Equal(v, r.in.digests[k])
}

// doSocket executes one op over client connection c.
func (r *runner) doSocket(c int, op uint32) bool {
	k := op >> 1
	if op&1 == 1 {
		_, err := r.d.clients[c].Call("app.Write", r.writeReq[k])
		return err == nil
	}
	resp, err := r.d.clients[c].Call("app.Read", r.readReq[k])
	if err != nil {
		return false
	}
	ok := false
	err = wire.Decode(resp, func(d *wire.Decoder) error {
		for !d.Done() {
			f, t, err := d.Next()
			if err != nil {
				return err
			}
			if f != 2 {
				if err := d.Skip(t); err != nil {
					return err
				}
				continue
			}
			v, err := d.Bytes()
			if err != nil {
				return err
			}
			ok = bytes.Equal(v, r.in.digests[k])
		}
		return nil
	})
	return err == nil && ok
}

// run executes ops closed-loop — one client in process, two over
// sockets — timing each into lat when lat is non-nil, and returns how
// many failed or returned wrong bytes. With traced set every op is
// wrapped in a root span whose request id indexes r.tracedOps.
func (r *runner) run(ops []uint32, lat []int64, traced bool) (bad int) {
	rec := r.d.rec
	base := len(r.tracedOps)
	if traced {
		r.tracedOps = append(r.tracedOps, ops...)
	}
	one := func(c, i int) bool {
		op := ops[i]
		if !traced {
			t0 := time.Now()
			ok := r.exec(c, op)
			if lat != nil {
				lat[i] = int64(time.Since(t0))
			}
			return ok
		}
		root := rec.begin(kindRead+uint8(op&1), int32(base+i))
		ok := r.exec(c, op)
		lat[i] = rec.end(root)
		return ok
	}
	if !r.sp.tcp {
		for i := range ops {
			if !one(0, i) {
				bad++
			}
		}
		return bad
	}
	// Ops are dealt round-robin, so each client's subsequence is fixed.
	bads := make([]int, len(r.d.clients))
	var wg sync.WaitGroup
	for c := range r.d.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(ops); i += len(r.d.clients) {
				if !one(c, i) {
					bads[c]++
				}
			}
		}()
	}
	wg.Wait()
	for _, b := range bads {
		bad += b
	}
	return bad
}

func (r *runner) exec(c int, op uint32) bool {
	if r.sp.tcp {
		return r.doSocket(c, op)
	}
	return r.do(op)
}

// sliceStat is what one measured slice of sliceOps ops yields.
type sliceStat struct {
	traced      bool
	ops         int
	wall        time.Duration
	p50, p99    float64 // us
	meanUS      float64
	cost        float64 // u$/Mreq
	allocs      float64 // per op
	allocBytes  float64 // per op
	busyUS      map[string]float64
	gcCPU       float64 // seconds
	hits, reads int64
	blockHits   int64
	blockReads  int64
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func gcCPUSeconds() float64 {
	metrics.Read(gcCPUSample)
	return gcCPUSample[0].Value.Float64()
}

// slice measures the next sliceOps ops of the stream.
func (r *runner) slice(traced bool) sliceStat {
	n := r.sp.sliceOps
	ops := make([]uint32, n)
	for i := range ops {
		ops[i] = r.in.stream[r.pos]
		r.pos = (r.pos + 1) % len(r.in.stream)
	}
	lat := r.lat[:n]
	d := r.d
	d.rec.on.Store(traced)
	hits0, miss0 := d.hitStats()
	block0 := d.node.LeaderDB().Store().CacheStats()
	gc0 := gcCPUSeconds()
	var ms0, ms1 runtime.MemStats
	d.m.Reset()
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	bad := r.run(ops, lat, traced)
	wall := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	d.m.AddRequests(int64(n))
	rep := meter.BuildReport(d.m, meter.GCP)
	d.rec.on.Store(false)
	r.attempted += int64(n)
	r.failed += int64(bad)

	st := sliceStat{
		traced:     traced,
		ops:        n,
		wall:       wall,
		cost:       rep.CostPerMillionRequests() * 1e6,
		allocs:     float64(ms1.Mallocs-ms0.Mallocs) / float64(n),
		allocBytes: float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n),
		busyUS:     map[string]float64{},
		gcCPU:      gcCPUSeconds() - gc0,
	}
	for _, c := range d.m.Snapshot() {
		st.busyUS[c.Name] = float64(c.Busy) / 1e3 / float64(n)
	}
	hits1, miss1 := d.hitStats()
	st.hits, st.reads = hits1-hits0, (hits1-hits0)+(miss1-miss0)
	r.hits, r.misses = r.hits+st.hits, r.misses+miss1-miss0
	block1 := d.node.LeaderDB().Store().CacheStats()
	st.blockHits = block1.Hits - block0.Hits
	st.blockReads = st.blockHits + block1.Misses - block0.Misses
	var sum int64
	for _, l := range lat {
		sum += l
	}
	st.meanUS = float64(sum) / 1e3 / float64(n)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	st.p50 = float64(lat[n/2]) / 1e3
	st.p99 = float64(lat[n*99/100]) / 1e3
	return st
}

// window measures slices for at least seconds. With trace set, untraced
// and traced slices interleave (U T T U U T T U ...), so the two sides of
// trace_overhead_frac see the same machine noise; pairs rather than
// strict alternation, which can lock onto the collector's own period.
func (r *runner) window(seconds float64, trace bool) []sliceStat {
	// Collect set-up garbage first, so the window does not absorb
	// another deployment's GC debt.
	runtime.GC()
	var out []sliceStat
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline) || i < 2; i++ {
		out = append(out, r.slice(trace && (i%4 == 1 || i%4 == 2)))
	}
	return out
}

// quantile returns the q-quantile of f over the slices that pass keep.
func quantile(slices []sliceStat, keep func(sliceStat) bool, f func(sliceStat) float64, q float64) float64 {
	var vs []float64
	for _, s := range slices {
		if keep(s) {
			vs = append(vs, f(s))
		}
	}
	return quantileOf(vs, q)
}

func median(slices []sliceStat, keep func(sliceStat) bool, f func(sliceStat) float64) float64 {
	return quantile(slices, keep, f, 0.5)
}

// quantileOf interpolates linearly between the order statistics of vs.
func quantileOf(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	pos := q * float64(len(vs)-1)
	lo := int(pos)
	if lo+1 >= len(vs) {
		return vs[len(vs)-1]
	}
	return vs[lo] + (pos-float64(lo))*(vs[lo+1]-vs[lo])
}

func medianOf(vs []float64) float64 { return quantileOf(vs, 0.5) }

func untraced(s sliceStat) bool { return !s.traced }
func isTraced(s sliceStat) bool { return s.traced }
