// Package flight is the tail-latency flight recorder: an always-on,
// allocation-free per-request record of where each client-visible request
// spent its intended-clock latency (queue, cache, storage, app) and
// what it cost, feeding a lock-free ring of recent requests and
// a tail-based sampler.
//
// The sampler inverts head sampling's blind spot: instead of choosing
// requests to keep *before* anything is known about them (PR 3's 1-in-N
// span capture), it decides at request *completion*, when the outcome and
// total latency are facts. It retains full exemplars — stage breakdown,
// cost, and the span tree when the request happened to be head-sampled —
// for the slowest-K requests seen, plus every blown-deadline, degraded
// and errored request (each class in its own bounded
// drop-oldest buffer). A request that was fast until its final stage is
// still captured, because nothing is decided until it finishes.
//
// The recorder keeps no per-request state of its own: the request's
// metering lane (meter.Lane) is its record, which Begin arms to time
// stages and Done reads. The fast path costs one seqlock slot write per
// completion and allocates nothing. Only retention (a few per thousand
// requests) allocates.
package flight

import (
	"container/heap"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cachecost/internal/meter"
	"cachecost/internal/trace"
)

// Outcome classifies a completed request for retention and filtering.
type Outcome uint8

const (
	// outcomeOK is a request served normally within its deadline.
	outcomeOK Outcome = iota
	// outcomeDeadline is a request whose SLO deadline expired.
	outcomeDeadline
	// outcomeDegraded is a request answered in cache-degraded mode.
	outcomeDegraded
	// outcomeError is a request whose handler returned an error.
	outcomeError

	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "deadline", "degraded", "error"}

// String returns the outcome's JSON/query name.
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "unknown"
}

// ParseOutcome maps a query-string value back to an Outcome.
func ParseOutcome(s string) (Outcome, bool) {
	for i, n := range outcomeNames {
		if n == s {
			return Outcome(i), true
		}
	}
	return 0, false
}

// Record is the always-on per-request flight record. It is a plain value
// — copying it into and out of the ring allocates nothing.
type Record struct {
	// TraceID/SpanID correlate with head-sampled span captures and with
	// structured log lines (0 when the request was not sampled).
	TraceID uint64
	SpanID  uint64
	// Method is the front-door RPC method ("app.Read", "cache.get", ...).
	Method string
	// Arch labels the serving architecture ("Base", "Remote", ...); empty
	// outside figure runs.
	Arch string
	// Start is the handler start instant, unix nanoseconds.
	Start int64
	// Intended is the request's intended arrival instant (open-loop
	// schedule slot), unix nanoseconds; 0 for closed-loop requests.
	Intended int64
	// Dur is the intended-clock latency in nanoseconds: completion minus
	// intended arrival (completion minus Start when Intended is 0).
	Dur int64
	// Stages is the per-stage latency split in nanoseconds, indexed by
	// meter.Stage. StageRaft is informational: its time is already inside
	// StageStorage and is excluded from conservation sums.
	Stages [meter.NumStages]int64
	// Flags carries the meter.Flag* outcome bits.
	Flags uint32
	// Cost is the request's busy time on the meter's clock, nanoseconds.
	Cost int64
	// Err is the handler error text ("" on success).
	Err string
}

// Outcome classifies the record by severity: error > deadline >
// degraded > ok.
func (r *Record) Outcome() Outcome {
	switch {
	case r.Flags&meter.FlagError != 0:
		return outcomeError
	case r.Flags&meter.FlagDeadline != 0:
		return outcomeDeadline
	case r.Flags&meter.FlagDegraded != 0:
		return outcomeDegraded
	}
	return outcomeOK
}

// DominantStage returns the stage holding the largest share of the
// record's latency (StageRaft excluded, as a sub-stage of storage).
func (r *Record) DominantStage() meter.Stage {
	best, bestV := meter.StageApp, int64(-1)
	for s := meter.Stage(0); s < meter.NumStages; s++ {
		if s == meter.StageRaft {
			continue
		}
		if r.Stages[s] > bestV {
			best, bestV = s, r.Stages[s]
		}
	}
	return best
}

// Exemplar is a retained record plus the span tree captured at
// completion when the request happened to be head-sampled.
type Exemplar struct {
	Record
	Spans []trace.Span
}

// Config parameterizes a Recorder. The zero value is usable.
type Config struct {
	// RingSize is the capacity of the recent-request ring. Default 2048.
	RingSize int
	// SlowestK is how many slowest requests the tail sampler retains.
	// Default 64.
	SlowestK int
	// OutcomeCap bounds each bad-outcome exemplar buffer (deadline,
	// degraded, error); oldest entries drop first. Default 64.
	OutcomeCap int
	// CPUCoreMonthUSD, when set, prices record cost in dollars on the
	// JSON surface (busy-core-months x price).
	CPUCoreMonthUSD float64
}

func (c Config) withDefaults() Config {
	if c.RingSize <= 0 {
		c.RingSize = 2048
	}
	if c.SlowestK <= 0 {
		c.SlowestK = 64
	}
	if c.OutcomeCap <= 0 {
		c.OutcomeCap = 64
	}
	return c
}

// Recorder is the flight recorder. All methods are safe for concurrent
// use and nil-safe, so a deployment without one passes nil around.
type Recorder struct {
	cfg  Config
	ring *ring

	total atomic.Int64 // records seen since New/Reset

	// threshold gates the slowest-K path without taking mu: once the
	// heap is full it holds the current K-th slowest duration, and only
	// completions slower than that contend for the lock.
	threshold atomic.Int64

	mu       sync.Mutex
	slowest  slowHeap                // min-heap on Dur; top is the K-th slowest retained
	outcomes [numOutcomes][]Exemplar // FIFO per bad outcome; [outcomeOK] unused
}

// New builds a Recorder.
func New(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{cfg: cfg, ring: newRing(cfg.RingSize)}
}

// Begin arms the request's lane to time its stages, and returns sc.
// Nil-safe.
func (r *Recorder) Begin(sc trace.SpanContext) trace.SpanContext {
	if r != nil {
		sc.Lane().Arm()
	}
	return sc
}

// Done completes the request's flight record from its lane — stages,
// outcome flags and busy time, so the lane must have ended its last lap
// (parked) and not yet closed — plus the completion-computed queue and app
// remainder stages; writes it into the ring and makes the tail retention
// decision. start is the handler start instant and dur its wall duration;
// err is the handler result. Nil-safe; a context without a lane records
// zero stages and cost.
func (r *Recorder) Done(sc trace.SpanContext, arch, method string, start time.Time, dur time.Duration, err error) {
	if r == nil {
		return
	}
	l := sc.Lane()
	startNS := start.UnixNano()
	endNS := startNS + int64(dur)
	rec := Record{
		TraceID:  sc.TraceID(),
		SpanID:   sc.SpanID(),
		Method:   method,
		Arch:     arch,
		Start:    startNS,
		Intended: sc.IntendedUnixNano(),
		Dur:      int64(dur),
		Stages:   l.Stages(),
		Flags:    l.Flags(),
		Cost:     int64(l.Busy()),
	}
	if rec.Intended > 0 {
		rec.Stages[meter.StageQueue] = max(startNS-rec.Intended, 0)
		rec.Dur = endNS - rec.Intended
	}
	inner := rec.Stages[meter.StageCache] + rec.Stages[meter.StageStorage]
	rec.Stages[meter.StageApp] = max(int64(dur)-inner, 0)
	if err != nil {
		rec.Flags |= meter.FlagError
		rec.Err = err.Error()
	}
	// A request that finished past its propagated SLO deadline blew it
	// even if it reached the front door in time — completion time is the
	// only place this is knowable.
	if dl := sc.DeadlineUnixNano(); dl != 0 && endNS > dl {
		rec.Flags |= meter.FlagDeadline
	}

	r.total.Add(1)
	r.ring.put(rec)
	r.retain(rec, sc)
}

// retain applies the completion-time tail-sampling decision.
func (r *Recorder) retain(rec Record, sc trace.SpanContext) {
	out := rec.Outcome()
	slow := rec.Dur > r.threshold.Load()
	if out == outcomeOK && !slow {
		return
	}
	ex := Exemplar{Record: rec, Spans: sc.SnapshotSpans()}
	r.mu.Lock()
	if out != outcomeOK {
		q := r.outcomes[out]
		if len(q) >= r.cfg.OutcomeCap {
			copy(q, q[1:])
			q = q[:len(q)-1]
		}
		r.outcomes[out] = append(q, ex)
	}
	// Re-check slowness under the lock: the threshold may have risen.
	if rec.Dur > r.threshold.Load() {
		heap.Push(&r.slowest, ex)
		if len(r.slowest) > r.cfg.SlowestK {
			heap.Pop(&r.slowest)
		}
		if len(r.slowest) >= r.cfg.SlowestK {
			r.threshold.Store(r.slowest[0].Dur)
		}
	}
	r.mu.Unlock()
}

// Total returns the number of completions recorded since New or Reset.
func (r *Recorder) Total() int64 {
	if r == nil {
		return 0
	}
	return r.total.Load()
}

// Ring returns up to limit most-recent records, newest first (limit <= 0
// returns all). Nil-safe.
func (r *Recorder) Ring(limit int) []Record {
	if r == nil {
		return nil
	}
	return r.ring.snapshot(limit)
}

// ExemplarSet is a snapshot of every retained exemplar class.
type ExemplarSet struct {
	Slowest  []Exemplar // slowest-K, slowest first
	Deadline []Exemplar
	Degraded []Exemplar
	Error    []Exemplar
}

// Exemplars snapshots the retained exemplars. Nil-safe.
func (r *Recorder) Exemplars() ExemplarSet {
	if r == nil {
		return ExemplarSet{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	slow := append([]Exemplar(nil), r.slowest...)
	// The heap array is only min-first, not sorted; order the report
	// slowest first.
	sort.Slice(slow, func(i, j int) bool { return slow[i].Dur > slow[j].Dur })
	cp := func(q []Exemplar) []Exemplar { return append([]Exemplar(nil), q...) }
	return ExemplarSet{
		Slowest:  slow,
		Deadline: cp(r.outcomes[outcomeDeadline]),
		Degraded: cp(r.outcomes[outcomeDegraded]),
		Error:    cp(r.outcomes[outcomeError]),
	}
}

// Reset drops every record and exemplar (the overload figure calls it at
// the start of each cell, so its exemplars describe that cell only).
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.slowest = nil
	for i := range r.outcomes {
		r.outcomes[i] = nil
	}
	r.threshold.Store(0)
	r.mu.Unlock()
	r.ring.reset()
	r.total.Store(0)
}

// slowHeap is a min-heap of exemplars on intended-clock duration.
type slowHeap []Exemplar

func (h slowHeap) Len() int           { return len(h) }
func (h slowHeap) Less(i, j int) bool { return h[i].Dur < h[j].Dur }
func (h slowHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *slowHeap) Push(x any)        { *h = append(*h, x.(Exemplar)) }
func (h *slowHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Scope binds a Recorder to an architecture label. It implements the
// rpc.FlightRecorder hook: one global Recorder serves several figure
// cells, each stamping its own arch onto the records it produces.
type Scope struct {
	r    *Recorder
	arch string
}

// Scope returns a recording scope labeled arch. Nil-safe (a nil
// recorder yields a nil, inert scope).
func (r *Recorder) Scope(arch string) *Scope {
	if r == nil {
		return nil
	}
	return &Scope{r: r, arch: arch}
}

// Begin arms the request's lane (see Recorder.Begin). Nil-safe.
func (s *Scope) Begin(sc trace.SpanContext) trace.SpanContext {
	if s == nil {
		return sc
	}
	return s.r.Begin(sc)
}

// Done completes the record under the scope's arch label. Nil-safe.
func (s *Scope) Done(sc trace.SpanContext, method string, start time.Time, dur time.Duration, err error) {
	if s == nil {
		return
	}
	s.r.Done(sc, s.arch, method, start, dur, err)
}
