package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cachecost/internal/meter"
	"cachecost/internal/telemetry"
	"cachecost/internal/workload"
)

// recCall is one client request a recording worker saw: the method and
// the keys it carried, in order.
type recCall struct {
	method string
	keys   []string
}

// recWorker is a fake lane that records every call it receives. Only its
// lane's goroutine touches calls; the two instruments it bumps per call
// are what the fence must zero exactly once, after the last warmup op.
type recWorker struct {
	svc         *recService
	calls       []recCall
	intendedSet int // calls to SetIntended with a non-zero instant
	pending     time.Time
}

func (w *recWorker) rec(method string, deadline time.Time, keys ...string) {
	if !deadline.IsZero() && !deadline.Equal(w.pending.Add(w.svc.slo)) {
		w.svc.t.Errorf("%s %v: deadline %v is not intended arrival %v + SLO", method, keys, deadline, w.pending)
	}
	w.calls = append(w.calls, recCall{method, append([]string(nil), keys...)})
	w.svc.telCalls.Inc()
	l := meter.OpenLane(w.svc.comp)
	l.CountHop()
	l.Close()
}

func (w *recWorker) Read(key string) ([]byte, error) {
	w.rec("read", time.Time{}, key)
	return nil, nil
}
func (w *recWorker) Write(key string, _ []byte) error {
	w.rec("write", time.Time{}, key)
	return nil
}
func (w *recWorker) ReadDeadline(key string, d time.Time) ([]byte, error) {
	w.rec("read@", d, key)
	return nil, nil
}
func (w *recWorker) WriteDeadline(key string, _ []byte, d time.Time) error {
	w.rec("write@", d, key)
	return nil
}
func (w *recWorker) ReadBatch(keys []string) ([][]byte, error) {
	w.rec("readbatch", time.Time{}, keys...)
	return make([][]byte, len(keys)), nil
}
func (w *recWorker) WriteBatch(keys []string, _ [][]byte) error {
	w.rec("writebatch", time.Time{}, keys...)
	return nil
}
func (w *recWorker) SetIntended(t time.Time) {
	w.pending = t
	if !t.IsZero() {
		w.intendedSet++
	}
}

// recService is a recording ParallelService whose default lane (the
// service itself, driven at P=1) and worker lanes are all recWorkers.
type recService struct {
	*recWorker
	t        *testing.T
	lanes    []*recWorker
	slo      time.Duration
	telCalls *telemetry.Counter
	comp     *meter.Component // each call closes one lane on it, counting one hop
}

func (s *recService) Arch() Arch { return Base }
func (s *recService) Worker(i int) (ServiceWorker, error) {
	if i < 0 || i >= len(s.lanes) {
		return nil, fmt.Errorf("no lane %d", i)
	}
	return s.lanes[i], nil
}

var (
	_ ParallelService    = (*recService)(nil)
	_ BatchServiceWorker = (*recWorker)(nil)
	_ DeadlineWorker     = (*recWorker)(nil)
	_ IntendedWorker     = (*recWorker)(nil)
)

// wantCalls is what lane w of par must receive for one phase of stream:
// ops w, w+P, … in order, in chunks of batch — a chunk of a batched run is
// its reads as one ReadBatch, then its writes as one WriteBatch.
func wantCalls(stream []workload.Op, par, w, batch int, deadlines bool) []recCall {
	var mine []workload.Op
	for i := w; i < len(stream); i += par {
		mine = append(mine, stream[i])
	}
	var calls []recCall
	for len(mine) > 0 {
		n := min(batch, len(mine))
		var reads, writes []string
		for _, op := range mine[:n] {
			if op.Kind == workload.Read {
				reads = append(reads, op.Key)
			} else {
				writes = append(writes, op.Key)
			}
		}
		mine = mine[n:]
		suffix := ""
		if deadlines {
			suffix = "@"
		}
		switch {
		case batch == 1 && len(reads) == 1:
			calls = append(calls, recCall{"read" + suffix, reads})
		case batch == 1:
			calls = append(calls, recCall{"write" + suffix, writes})
		default:
			if len(reads) > 0 {
				calls = append(calls, recCall{"readbatch", reads})
			}
			if len(writes) > 0 {
				calls = append(calls, recCall{"writebatch", writes})
			}
		}
	}
	return calls
}

// TestDriveEquivalence pins the one rule of the one driver at every
// setting: lane w executes exactly ops w, w+P, … of each phase in order,
// modes differ only in how those ops are chunked and released.
func TestDriveEquivalence(t *testing.T) {
	const warmup, ops = 37, 203 // neither divides by P or B: tail chunks are exercised
	genCfg := workload.SyntheticConfig{Keys: 64, ReadRatio: 0.7, ValueSize: 16, Seed: 9}
	ref := workload.NewSynthetic(genCfg)
	stream := make([]workload.Op, warmup+ops)
	for i := range stream {
		stream[i] = ref.Next()
	}
	for _, par := range []int{1, 4} {
		for _, batch := range []int{1, 8} {
			for _, open := range []bool{false, true} {
				name := fmt.Sprintf("P%d/B%d/open=%v", par, batch, open)
				t.Run(name, func(t *testing.T) {
					m := meter.NewMeter()
					reg := telemetry.NewRegistry()
					svc := &recService{t: t, comp: m.Component("rec"), telCalls: reg.Counter("rec.calls")}
					svc.recWorker = &recWorker{svc: svc}
					workers := []*recWorker{svc.recWorker}
					if par > 1 {
						workers = nil
						for i := 0; i < par; i++ {
							workers = append(workers, &recWorker{svc: svc})
						}
						svc.lanes = workers
					}
					var onOp []int
					cfg := RunConfig{
						Warmup: warmup, Ops: ops, Parallelism: par, BatchSize: batch, Prices: meter.GCP,
						Telemetry: reg, OnOp: func(n int) { onOp = append(onOp, n) },
					}
					if open {
						// Fast enough to finish in milliseconds, deep enough
						// lanes (the default 1024) that nothing is shed.
						cfg.Arrival = &workload.ArrivalConfig{Process: workload.ArrivalPoisson, Rate: 50000, Seed: 3}
						cfg.SLO = time.Second
						svc.slo = cfg.SLO
					}
					res, err := RunExperimentCfg(svc, m, workload.NewSynthetic(genCfg), cfg)
					if open && batch > 1 {
						if err == nil {
							t.Fatal("open loop with BatchSize > 1 must stay rejected")
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}

					meteredCalls := 0
					got := map[workload.Op]int{}
					for w, lane := range workers {
						want := wantCalls(stream[:warmup], par, w, batch, false)
						met := wantCalls(stream[warmup:], par, w, batch, open)
						meteredCalls += len(met)
						if want = append(want, met...); !reflect.DeepEqual(lane.calls, want) {
							t.Errorf("lane %d executed\n%v\nwant\n%v", w, lane.calls, want)
						}
						for _, c := range lane.calls {
							kind := workload.Write
							if c.method[0] == 'r' {
								kind = workload.Read
							}
							for _, k := range c.keys {
								got[workload.Op{Kind: kind, Key: k}]++
							}
						}
						// Intended arrivals are stamped on every open-loop
						// op and cleared (never set) under closed loop.
						wantSet := 0
						if open {
							wantSet = len(met)
						}
						if lane.intendedSet != wantSet {
							t.Errorf("lane %d: SetIntended saw %d instants, want %d", w, lane.intendedSet, wantSet)
						}
					}
					for _, op := range stream {
						got[workload.Op{Kind: op.Kind, Key: op.Key}]--
					}
					for op, n := range got {
						if n != 0 {
							t.Errorf("aggregate multiset off by %+d for %v", n, op)
						}
					}
					for i, n := range onOp {
						if n != i {
							t.Fatalf("OnOp call %d carried %d: sequence not dense", i, n)
						}
					}
					if len(onOp) != warmup+ops {
						t.Errorf("OnOp fired %d times, want %d", len(onOp), warmup+ops)
					}
					// The fence ran exactly once, after the last warmup op
					// and before the first metered one: each instrument
					// holds the metered window's calls, no more, no fewer.
					if got := svc.telCalls.Value(); got != int64(meteredCalls) {
						t.Errorf("telemetry saw %d calls after the fence, want %d", got, meteredCalls)
					}
					if got := res.Path.RPCHops; got != int64(meteredCalls) {
						t.Errorf("path saw %d calls after the fence, want %d", got, meteredCalls)
					}
					// Warmup ops are never sampled: one latency per metered op.
					for _, h := range res.Hists {
						if h.Name == "request.latency" && h.Count != ops {
							t.Errorf("request.latency holds %d samples, want %d", h.Count, ops)
						}
					}
					if res.Ops != ops || res.Report.Requests != ops {
						t.Errorf("priced %d ops over %d requests, want %d", res.Ops, res.Report.Requests, ops)
					}
				})
			}
		}
	}
}

// failingWorker errors on its failAt'th call.
type failingWorker struct {
	stallService
	mu     sync.Mutex
	calls  int
	failAt int
}

var errInjected = errors.New("injected lane failure")

func (f *failingWorker) Read(string) ([]byte, error) { return nil, f.Write("", nil) }
func (f *failingWorker) Write(string, []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.calls++; f.calls == f.failAt {
		return errInjected
	}
	return nil
}
func (f *failingWorker) Worker(int) (ServiceWorker, error) { return f, nil }

// TestDriveOpenLoopStopsOnLaneError: a lane failure ends the run, so the
// dispatcher must not pace out the rest of the schedule — sleeping
// through it and firing OnOp (chaos steps, controller ticks) for ops that
// will never be reported.
func TestDriveOpenLoopStopsOnLaneError(t *testing.T) {
	const warmup, ops = 4, 200
	for _, par := range []int{1, 2} {
		svc := &failingWorker{failAt: warmup + 3}
		released := 0
		cfg := openLoopCfg(ops, 100, par) // a 2 s schedule
		cfg.Warmup = warmup
		cfg.OnOp = func(int) { released++ }
		t0 := time.Now()
		_, err := RunExperimentCfg(svc, meter.NewMeter(), synthGen(t, ops), cfg)
		if !errors.Is(err, errInjected) {
			t.Fatalf("P%d: err = %v, want the lane's error", par, err)
		}
		if d := time.Since(t0); d > 250*time.Millisecond {
			t.Errorf("P%d: returned after %v; dispatch kept pacing a failed run", par, d)
		}
		if released > warmup+ops/2 {
			t.Errorf("P%d: OnOp fired %d times around a failure at op %d", par, released, warmup+3)
		}
	}
}

// lateWorker answers every op at once except its lane's last metered op,
// which it holds until well past that op's deadline. Nothing is queued
// behind a lane's last op, so exactly one op per lane finishes late.
type lateWorker struct {
	last, n int // metered ops dealt to the lane; deadline-carrying calls seen
}

func (w *lateWorker) Read(string) ([]byte, error) { return nil, nil }
func (w *lateWorker) Write(string, []byte) error  { return nil }
func (w *lateWorker) ReadDeadline(_ string, d time.Time) ([]byte, error) {
	w.hold(d)
	return nil, nil
}
func (w *lateWorker) WriteDeadline(_ string, _ []byte, d time.Time) error {
	w.hold(d)
	return nil
}
func (w *lateWorker) hold(d time.Time) {
	if w.n++; w.n == w.last {
		time.Sleep(time.Until(d) + 50*time.Millisecond)
	}
}

// TestDriveCountsLateOps: under an SLO, RunResult.Late counts the executed
// ops that finished past their deadline — here each lane's held last op,
// and none of the instant ones, whose 100 ms budget is far above any
// dispatch slip. Without an SLO no op has a deadline to miss.
func TestDriveCountsLateOps(t *testing.T) {
	const par, ops = 4, 200
	for _, c := range []struct {
		slo  time.Duration
		late int64
	}{{100 * time.Millisecond, par}, {0, 0}} {
		workers := make([]ServiceWorker, par)
		for w := range workers {
			workers[w] = &lateWorker{last: ops / par}
		}
		cfg := openLoopCfg(ops, 400, par)
		cfg.SLO = c.slo
		res, err := Drive(workers, synthGen(t, ops), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Late != c.late || res.Executed != ops {
			t.Errorf("SLO %v: Late = %d of %d executed, want %d of %d", c.slo, res.Late, res.Executed, c.late, ops)
		}
	}
}

// TestDriveHitRatioIsWindowOnly: RunResult.HitRatio is cut at the same
// fence as every other field. A read-only Linked cell whose cache holds
// the whole working set, warmed until every key is resident, hits on
// every metered read — warmup's compulsory misses must not show.
func TestDriveHitRatioIsWindowOnly(t *testing.T) {
	gen := workload.NewSynthetic(workload.SyntheticConfig{Keys: 32, Alpha: 0.5, ReadRatio: 1, ValueSize: 256, Seed: 4})
	m := meter.NewMeter()
	svc, err := BuildKVService(ServiceConfig{Arch: Linked, Meter: m, AppCacheBytes: 1 << 20}, gen)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunExperiment(svc, m, gen, 2000, 500, meter.GCP)
	if err != nil {
		t.Fatal(err)
	}
	if res.HitRatio != 1 {
		t.Fatalf("HitRatio = %v over a fully warmed window, want exactly 1", res.HitRatio)
	}
	if all := svc.CacheHitRatio(); all >= 1 {
		t.Fatalf("lifetime ratio %v should still carry warmup's compulsory misses", all)
	}
}

// TestParseArchRoundTrip: ParseArch is the inverse of Arch.String for
// every architecture, in any case and with either separator.
func TestParseArchRoundTrip(t *testing.T) {
	all := []Arch{Base, Remote, Linked, LinkedVersion, LinkedOwned, LinkedTTL}
	if len(all) != int(numArchs) {
		t.Fatalf("test lists %d architectures, package has %d", len(all), numArchs)
	}
	for _, a := range all {
		for _, s := range []string{a.String(), strings.ToLower(a.String()),
			strings.ReplaceAll(strings.ToUpper(a.String()), "+", "-"), strings.ReplaceAll(a.String(), "+", "")} {
			if got, err := ParseArch(s); err != nil || got != a {
				t.Errorf("ParseArch(%q) = %v, %v; want %v", s, got, err, a)
			}
		}
	}
	for _, s := range []string{"", "Arch(2)", "remote-cache", "linked ttl"} {
		if a, err := ParseArch(s); err == nil {
			t.Errorf("ParseArch(%q) = %v, want an error", s, a)
		}
	}
}

// TestPercentilesNearestRank: p is the sample of rank ceil(n·p), so the
// p50 of three samples is the middle one and the p99 of 101 is the
// 100th, not the 99th.
func TestPercentilesNearestRank(t *testing.T) {
	for _, c := range []struct {
		n, p50, p99 int
	}{
		{1, 1, 1},
		{2, 1, 2},
		{3, 2, 3},
		{99, 50, 99},
		{100, 50, 99},
		{101, 51, 100},
		{1001, 501, 991},
	} {
		d := make([]time.Duration, c.n)
		for i := range d {
			d[i] = time.Duration(c.n - i) // ranks 1..n, reversed
		}
		p50, p99 := percentiles(d)
		if p50 != time.Duration(c.p50) || p99 != time.Duration(c.p99) {
			t.Errorf("n=%d: p50, p99 = %d, %d, want %d, %d", c.n, p50, p99, c.p50, c.p99)
		}
	}
	if p50, p99 := percentiles(nil); p50 != 0 || p99 != 0 {
		t.Errorf("empty: %d, %d", p50, p99)
	}
}
