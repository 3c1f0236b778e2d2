package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cachecost/internal/meter"
	"cachecost/internal/telemetry"
	"cachecost/internal/workload"
)

// RunResult is the priced outcome of driving one service with one
// workload.
type RunResult struct {
	Arch     Arch
	Workload string
	Ops      int
	Report   meter.Report
	// CostPerMReq is the total monthly cost normalized to one million
	// requests of monthly volume — the scale-free comparison unit.
	CostPerMReq float64
	// HitRatio is the application-level cache hit ratio (0 for Base).
	HitRatio float64
	// Component cost rollups ($/month at observed load).
	AppCost, CacheCost, StorageCost float64
	// Cores rollups.
	AppCores, CacheCores, StorageCores float64
	// Path holds the exact request-path counts for the metered window
	// (hops, cache messages, SQL statements, raft ships per the paper's
	// §5.3/§5.5 path model, and the fault-path events: cache demotions,
	// retries and requests expired on arrival): the meter's sum
	// over every request's lane, traced or not. Zero from Drive, which
	// has no meter.
	Path meter.PathStats

	// Parallelism is the worker count the metered window ran at.
	Parallelism int
	// Wall is the metered window's wall-clock duration.
	Wall time.Duration
	// Throughput is metered ops per second. Closed loop: ops over the
	// wall clock. Open loop: executed ops over the schedule span — the
	// wall clock of the slowest lane includes post-schedule drain time
	// and would overstate load figures (see RunConfig.Arrival).
	Throughput float64
	// LatencyP50 and LatencyP99 are per-request latency percentiles over
	// the metered window. Under open loop these are measured from each
	// op's *intended* arrival (coordinated-omission-free): an op that
	// waited in a lane queue is charged for the wait.
	LatencyP50, LatencyP99 time.Duration

	// Open-loop fields; zero unless RunConfig.Arrival was set.

	// Arrival names the schedule ("poisson@2000qps").
	Arrival string
	// Offered is how many ops the schedule offered in the metered
	// window; Executed is how many were actually issued to the service
	// (Offered - ClientShed).
	Offered, Executed int
	// ClientShed counts ops dropped at intended arrival because their
	// lane queue was full — the client-side half of overload.
	ClientShed int64
	// Late counts, under an SLO, the executed ops whose intended-clock
	// latency exceeded it: those the front door expired on arrival
	// (Path.Deadline) and those served in time that finished past their
	// deadline. Executed - Late ops met their SLO.
	Late int64
	// OfferedQPS is the schedule-defined offered rate (Offered / span).
	OfferedQPS float64
	// ScheduleSpan is the schedule's intended duration.
	ScheduleSpan time.Duration
	// SendLatencyP50/P99 are percentiles on the send-time clock (from
	// the moment the op left its lane queue) — the coordinated-omission
	// blind spot, reported alongside the honest clock so the gap is
	// visible. The regression suite pins that under a stall the
	// intended-arrival p99 is strictly worse than this one.
	SendLatencyP50, SendLatencyP99 time.Duration

	// Hists holds per-component histogram digests (request latency, rpc
	// message latency/bytes, sql statement latency) for the metered
	// window. Empty when the run had no telemetry registry.
	Hists []telemetry.HistSummary
}

// hitRatioReporter is implemented by services that track cache hits. It
// reports cumulative (hits, reads) since construction; the driver
// snapshots the pair at the fence and reports the metered window's delta,
// so warmup's compulsory misses never dilute RunResult.HitRatio.
type hitRatioReporter interface {
	cacheStats() (hits, reads int64)
}

// A service that drops the method silently reports HitRatio 0.
var _, _ hitRatioReporter = (*KVService)(nil), (*CatalogService)(nil)

// hitRatio is hits/reads, 0 when nothing was read.
func hitRatio(hits, reads int64) float64 {
	if reads == 0 {
		return 0
	}
	return float64(hits) / float64(reads)
}

// ServiceWorker is one worker's view of a service: the subset of Service
// a driver goroutine needs. Each worker must be used by one goroutine at
// a time.
type ServiceWorker interface {
	Read(key string) ([]byte, error)
	Write(key string, value []byte) error
}

// ParallelService is a Service that pre-built per-worker request lanes
// (KVService with ServiceConfig.Parallelism > 1).
type ParallelService interface {
	Service
	Worker(i int) (ServiceWorker, error)
}

// RunConfig parameterizes RunExperimentCfg.
type RunConfig struct {
	// Warmup operations run unmetered before the window; Ops are metered.
	Warmup, Ops int
	// Parallelism fans the workload out to that many lanes, each a
	// goroutine on its own service lane (Worker(i)). <= 1 is one lane on
	// the service's default lane. The aggregate op stream is identical at
	// any parallelism: ops are drawn from the generator once, in order,
	// and dealt round-robin to lanes. Drive ignores it: its lanes are the
	// workers it is handed.
	Parallelism int
	// BatchSize groups each lane's operations into multi-key batches
	// of this size (the service must implement BatchServiceWorker).
	// Within one batch the reads are issued as one ReadBatch and the
	// writes as one WriteBatch — reads first — so op order is preserved
	// across batches but not within one; the aggregate op multiset is
	// identical at any batch size. OnOp still fires once per op, per-op
	// latency is approximated as batch wall time / batch ops, and the
	// meter still normalizes cost per op, so results are comparable
	// across B. <= 1 issues every op as its own Read or Write.
	BatchSize int
	// Prices is the price book for the report.
	Prices meter.PriceBook
	// OnOp, when non-nil, is called as each operation is released to its
	// lane — warmup and metered alike — with the number of operations
	// released before it. Calls are serialized; under parallelism the
	// order operations start in is scheduler-dependent, but exactly one
	// call fires per op. Chaos schedules advance here.
	OnOp func(n int)
	// Arrival, when non-nil, switches the metered window to open-loop
	// driving: a deterministic schedule of cfg.Ops intended arrivals is
	// built from this config, a dispatcher releases each op at its
	// intended instant into a bounded per-lane queue, and latency is
	// measured from the intended arrival (coordinated-omission-free).
	// Warmup remains closed-loop. Incompatible with BatchSize > 1.
	Arrival *workload.ArrivalConfig
	// SLO, under open loop, is each op's latency budget: the op's
	// deadline is its intended arrival plus SLO, propagated down the
	// request path (and across transports) to the front door, which
	// answers an op that arrives past it without work; ops that finish
	// past it are counted in RunResult.Late. Zero means no deadline.
	SLO time.Duration
	// LaneDepth bounds each worker lane's client-side queue under open
	// loop; an op arriving to a full lane is dropped and counted in
	// RunResult.ClientShed. Default 1024.
	LaneDepth int
	// Telemetry, when non-nil, is the registry the service was assembled
	// with (ServiceConfig.Telemetry): its flows are reset at the metered
	// window boundary (mirroring meter.Reset), per-request latency is
	// observed into a "request.latency" histogram, and every histogram's
	// digest is snapshotted into RunResult.Hists.
	Telemetry *telemetry.Registry
}

// RunExperiment drives svc with ops operations from gen (after warmup
// unmetered operations) on one lane, then prices the metered window. The
// meter must be the one the service was assembled with. See
// RunExperimentCfg for parallelism, batching and open-loop driving.
func RunExperiment(svc Service, m *meter.Meter, gen workload.Generator, warmup, ops int, prices meter.PriceBook) (*RunResult, error) {
	return RunExperimentCfg(svc, m, gen, RunConfig{Warmup: warmup, Ops: ops, Prices: prices})
}

// RunExperimentCfg drives svc with cfg.Ops operations from gen (after
// cfg.Warmup unmetered operations) across cfg.Parallelism lanes, then
// prices the metered window and reports throughput and latency
// percentiles alongside cost.
func RunExperimentCfg(svc Service, m *meter.Meter, gen workload.Generator, cfg RunConfig) (*RunResult, error) {
	workers := []ServiceWorker{svc} // one lane: the service's default lane
	if cfg.Parallelism > 1 {
		ps, ok := svc.(ParallelService)
		if !ok {
			return nil, fmt.Errorf("core: %T does not support a parallel driver", svc)
		}
		workers = make([]ServiceWorker, cfg.Parallelism)
		for w := range workers {
			var err error
			if workers[w], err = ps.Worker(w); err != nil {
				return nil, err
			}
		}
	}
	cacheStats := func() (hits, reads int64) { return 0, 0 }
	if hr, ok := svc.(hitRatioReporter); ok {
		cacheStats = hr.cacheStats
	}
	// Meter on the thread-CPU clock for the whole run (lane goroutines are
	// pinned to OS threads): busy time then counts only CPU the measured
	// code actually consumed, not wall time it spent preempted by other
	// lanes or parked on a lock. On an idle machine this is identical to a
	// wall measurement for a single lane, and it is what keeps cost/Mreq
	// parallelism-invariant.
	m.SetThreadCPUClock(true)
	defer m.SetThreadCPUClock(false)
	var hits0, reads0 int64
	res, mean, err := drive(workers, gen, cfg, svc.Arch().String(), func() {
		m.Reset()
		hits0, reads0 = cacheStats()
	})
	if err != nil {
		return nil, err
	}
	hits, reads := cacheStats()
	res.Arch, res.HitRatio = svc.Arch(), hitRatio(hits-hits0, reads-reads0)
	res.Path = m.Path()
	// Price the requests the service actually saw: under open loop,
	// client-shed ops never reached the service and must not dilute
	// cost/Mreq.
	m.AddRequests(int64(res.Ops))
	report := meter.BuildReport(m, cfg.Prices)
	if res.Parallelism > 1 && mean > 0 {
		// Memory amortization under a concurrent driver: see
		// meter.Report.LaneQPS. The single-lane rate is 1/mean latency.
		report.LaneQPS = float64(time.Second) / float64(mean)
	}
	res.Report = report
	res.CostPerMReq = report.CostPerMillionRequests()
	res.AppCost, res.AppCores = report.ComponentCost("app"), report.ComponentCores("app")
	res.CacheCost, res.CacheCores = report.ComponentCost("remotecache"), report.ComponentCores("remotecache")
	res.StorageCost, res.StorageCores = report.ComponentCost("storage"), report.ComponentCores("storage")
	return res, nil
}

// percentiles sorts d and returns its nearest-rank p50 and p99: the
// samples of rank ceil(n·p) (zeros when empty).
func percentiles(d []time.Duration) (p50, p99 time.Duration) {
	if len(d) == 0 {
		return 0, 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	rank := func(pct int) time.Duration { return d[(len(d)*pct+99)/100-1] } // ceil(n·pct/100)
	return rank(50), rank(99)
}

// chunk is what a lane executes as one client request: up to BatchSize
// of its dealt ops. Under open loop it is one op, stamped with its
// intended arrival and SLO deadline (both zero under closed loop).
type chunk struct {
	ops                []workload.Op
	intended, deadline time.Time
}

// apply issues c against w as one client request.
func (c chunk) apply(w ServiceWorker, batched bool) (err error) {
	if batched {
		return applyBatch(w.(BatchServiceWorker), c.ops)
	}
	if iw, ok := w.(IntendedWorker); ok {
		iw.SetIntended(c.intended)
	}
	op := c.ops[0]
	var dw DeadlineWorker
	if !c.deadline.IsZero() {
		dw, _ = w.(DeadlineWorker) // a worker without deadlines drops them
	}
	switch timed := dw != nil; {
	case op.Kind == workload.Read && timed:
		_, err = dw.ReadDeadline(op.Key, c.deadline)
	case op.Kind == workload.Read:
		_, err = w.Read(op.Key)
	case timed:
		err = dw.WriteDeadline(op.Key, ValueFor(op.Key, op.ValueSize), c.deadline)
	default:
		err = w.Write(op.Key, ValueFor(op.Key, op.ValueSize))
	}
	if err != nil {
		return fmt.Errorf("core: %v %q: %w", op.Kind, op.Key, err)
	}
	return nil
}

// deal draws n ops from gen, in order, and deals them round-robin: lane
// w gets ops w, w+P, w+2P, … Drawing the stream once, up front, is what
// makes the aggregate key/op multiset identical at any parallelism,
// batch size and arrival process, and each lane's subsequence
// deterministic.
func deal(gen workload.Generator, n, par int) [][]workload.Op {
	lanes := make([][]workload.Op, par)
	for i := 0; i < n; i++ {
		lanes[i%par] = append(lanes[i%par], gen.Next())
	}
	return lanes
}

// Drive is the client half of the experiment driver, for workers whose
// service this process does not meter — cmd/loadgen's AppClients over
// sockets. Lane w is workers[w] (cfg.Parallelism is ignored); it runs
// cfg's warmup, fence and metered window exactly as RunExperimentCfg does
// and reports the metered window as the client sees it: ops, wall clock,
// throughput, latency percentiles on both clocks, the open-loop counts and
// cfg.Telemetry's histogram digests (request.latency among them). Nothing
// is priced, and no Path is reported: path counts are the service's
// meter's, which a client does not have.
func Drive(workers []ServiceWorker, gen workload.Generator, cfg RunConfig) (*RunResult, error) {
	res, _, err := drive(workers, gen, cfg, "", func() {})
	return res, err
}

// drive is the experiment driver: warmup, fence, metered window. One
// rule covers every mode: a lane executes its dealt ops in order, and
// modes differ only in when the next chunk is released to it. Closed
// loop releases a lane's next <= BatchSize ops the moment its previous
// chunk completes, so a slow service paces its own load; open loop
// releases each op at its scheduled instant into the lane's bounded
// queue (see pace), so it cannot. OnOp fires as each op is released.
// fence runs at the window boundary, after warmup's garbage is
// collected; arch labels the lanes in CPU profiles. Beside the client-side
// result, drive returns the metered ops' mean latency on the honest clock.
func drive(workers []ServiceWorker, gen workload.Generator, cfg RunConfig, arch string, fence func()) (*RunResult, time.Duration, error) {
	par, batched := len(workers), cfg.BatchSize > 1
	var sched *workload.Schedule
	if cfg.Arrival != nil {
		if batched {
			return nil, 0, fmt.Errorf("core: open-loop driving does not support batching")
		}
		var err error
		if sched, err = workload.BuildSchedule(*cfg.Arrival, cfg.Ops); err != nil {
			return nil, 0, err
		}
	}
	for _, w := range workers {
		if _, ok := w.(BatchServiceWorker); batched && !ok {
			return nil, 0, fmt.Errorf("core: %T does not support batched operations", w)
		}
	}
	warm, metered := deal(gen, cfg.Warmup, par), deal(gen, cfg.Ops, par)
	reqHist := cfg.Telemetry.Histogram("request.latency", "seconds")

	released := 0
	var onOpMu sync.Mutex
	release := func() {
		if cfg.OnOp != nil {
			onOpMu.Lock()
			cfg.OnOp(released)
			released++
			onOpMu.Unlock()
		}
	}
	// failed stops every lane after the first lane error.
	var failed atomic.Bool

	// lane is the one lane body. Its next chunk is the next op the
	// dispatcher released into queue, when it has one, else its own next
	// <= BatchSize dealt ops. Only the metered phase is sampled.
	send, intended := make([][]time.Duration, par), make([][]time.Duration, par)
	late := make([]int64, par)
	lane := func(w int, mine []workload.Op, queue <-chan chunk, sample bool) error {
		// Pin to an OS thread: every thread-CPU clock delta this lane's
		// request path takes is then against one clock.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		// Label the lane for CPU profiles: `go tool pprof` can then slice
		// samples by architecture and lane. Labels the lane inherited
		// (costbench's `figure`) are replaced: there is no context here
		// to merge them into.
		pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
			pprof.Labels("arch", arch, "lane", strconv.Itoa(w))))
		for !failed.Load() {
			var c chunk
			if queue != nil {
				var ok bool
				if c, ok = <-queue; !ok {
					break
				}
			} else if n := min(max(cfg.BatchSize, 1), len(mine)); n > 0 {
				c.ops, mine = mine[:n], mine[n:]
				for range c.ops {
					release()
				}
			} else {
				break
			}
			t0 := time.Now()
			if err := c.apply(workers[w], batched); err != nil {
				failed.Store(true)
				return err
			}
			done := time.Now()
			// A chunk is one client request; each of its ops is charged an
			// equal share of the request's wall time.
			sent := done.Sub(t0) / time.Duration(len(c.ops))
			lat := sent
			if queue != nil {
				lat = done.Sub(c.intended)
			}
			for range c.ops {
				reqHist.Observe(int64(lat))
				if sample {
					send[w] = append(send[w], sent)
					if queue != nil {
						intended[w] = append(intended[w], lat)
					}
					if !c.deadline.IsZero() && done.After(c.deadline) {
						late[w]++
					}
				}
			}
		}
		return nil
	}
	// phase runs every lane over its share of dealt — with the dispatcher
	// pacing them, when the lanes have queues — and reports the phase's
	// wall clock, the ops the dispatcher shed and the first lane error.
	phase := func(dealt [][]workload.Op, queues []chan chunk, sample bool) (wall time.Duration, shed int64, err error) {
		errs := make([]error, par)
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				errs[w] = lane(w, dealt[w], queues[w], sample)
			}(w)
		}
		if queues[0] != nil {
			shed = pace(sched, cfg.SLO, dealt, queues, release, &failed)
		}
		wg.Wait()
		return time.Since(t0), shed, errors.Join(errs...)
	}

	// Warmup is closed-loop in every mode: its job is warming caches and
	// per-lane connections, not measuring.
	queues := make([]chan chunk, par)
	if _, _, err := phase(warm, queues, false); err != nil {
		return nil, 0, err
	}

	// The fence. Collect garbage from setup and warmup (and from earlier
	// experiment cells in the same process) so the metered window does
	// not absorb another deployment's GC debt, then zero or snapshot
	// every instrument at the one boundary all of RunResult is cut at.
	runtime.GC()
	fence()
	cfg.Telemetry.Reset()

	depth := cfg.LaneDepth
	if depth <= 0 {
		depth = defaultLaneDepth
	}
	for w := range queues {
		send[w] = make([]time.Duration, 0, len(metered[w]))
		if sched != nil {
			queues[w] = make(chan chunk, depth) // the lane's bounded client-side buffer
		}
	}
	wall, shed, err := phase(metered, queues, true)
	if err != nil {
		return nil, 0, err
	}
	res := &RunResult{
		Workload:    gen.Name(),
		Parallelism: par,
		Wall:        wall,
	}
	if cfg.Telemetry != nil {
		res.Hists = cfg.Telemetry.Snapshot().HistSummaries()
	}
	// The honest clock: under open loop latency is measured from each op's
	// intended arrival, and the send clock is reported beside it.
	lats := slices.Concat(send...)
	res.Ops = len(lats)
	if sched != nil {
		res.SendLatencyP50, res.SendLatencyP99 = percentiles(lats)
		lats = slices.Concat(intended...)
		res.Arrival = sched.Name()
		res.Offered, res.Executed, res.ClientShed = cfg.Ops, res.Ops, shed
		for _, n := range late {
			res.Late += n
		}
		res.ScheduleSpan = sched.Span()
		if sp := sched.Span().Seconds(); sp > 0 {
			res.OfferedQPS = float64(cfg.Ops) / sp
			// The slowest lane's wall clock includes drain time past the
			// schedule's end; the schedule span is the honest denominator
			// for rate at a given offered load.
			res.Throughput = float64(res.Ops) / sp
		}
	} else if wall > 0 {
		res.Throughput = float64(cfg.Ops) / wall.Seconds()
	}
	var mean time.Duration
	if len(lats) > 0 {
		for _, d := range lats {
			mean += d
		}
		mean /= time.Duration(len(lats))
	}
	res.LatencyP50, res.LatencyP99 = percentiles(lats)
	return res, mean, nil
}

// PreloadItems materializes the key population of a KV-style generator
// (Synthetic or MetaKV) for KVService.Preload.
func PreloadItems(gen workload.Generator) ([]PreloadItem, error) {
	switch g := gen.(type) {
	case *workload.Synthetic:
		items := make([]PreloadItem, g.Keys())
		for i := range items {
			items[i] = PreloadItem{Key: workload.KeyName(i), Size: g.ValueSize()}
		}
		return items, nil
	case *workload.MetaKV:
		items := make([]PreloadItem, g.Keys())
		for i := range items {
			items[i] = PreloadItem{Key: workload.KeyName(i), Size: workload.MetaValueSize(i)}
		}
		return items, nil
	default:
		return nil, fmt.Errorf("core: no preloader for workload %q", gen.Name())
	}
}

// BuildKVService assembles and preloads a KVService for gen.
func BuildKVService(cfg ServiceConfig, gen workload.Generator) (*KVService, error) {
	svc, err := NewKVService(cfg)
	if err != nil {
		return nil, err
	}
	items, err := PreloadItems(gen)
	if err != nil {
		return nil, err
	}
	if err := svc.Preload(items); err != nil {
		return nil, err
	}
	return svc, nil
}
