// Package trace provides request-scoped tracing for the cachecost
// laboratory. The paper's cost claims are ultimately claims about request
// *paths* — how many RPC hops, (de)serializations, storage statements and
// replication fan-outs each architecture pays per operation (§5.3, §5.5).
// The request's metering lane (meter.Lane) counts that path exactly on
// every request; this package records it in detail for a sample: every
// instrumented layer opens a span (component, op, duration, bytes in/out,
// annotations such as "cache.hit" or "raft.fanout"), spans are captured
// 1-in-N into a ring buffer of the last N completed traces, exportable as
// Chrome trace-event JSON, and a SpanContext threads through both RPC
// transports so spans taken on different sides of a hop stitch into one
// trace.
//
// The SpanContext is also what the request carries down its path, traced
// or not: its SLO deadline (across transports), its intended arrival
// instant and its lane (in process only).
//
// Tracing is off when no Tracer is configured: the zero SpanContext is
// inert, every method is nil-safe, and instrumented hot paths pay only a
// pointer test.
package trace

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cachecost/internal/meter"
)

// TraceID identifies one request's trace. IDs are sequential per Tracer,
// which keeps fixed-seed runs reproducible.
type TraceID uint64

// SpanID identifies one span within a tracer's lifetime.
type SpanID uint64

// Annotation is one key/value note on a span ("cache.hit" = "true").
type Annotation struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed unit of work on a request path.
type Span struct {
	ID        SpanID        `json:"id"`
	Parent    SpanID        `json:"parent,omitempty"`
	Component string        `json:"component"`
	Op        string        `json:"op"`
	Start     time.Duration `json:"start_ns"`
	Duration  time.Duration `json:"duration_ns"`
	BytesIn   int64         `json:"bytes_in,omitempty"`
	BytesOut  int64         `json:"bytes_out,omitempty"`

	Annotations []Annotation `json:"annotations,omitempty"`
}

// Annotation returns the value of the first annotation with the given key.
func (s *Span) Annotation(key string) (string, bool) {
	for _, a := range s.Annotations {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// Trace is one completed request trace: the spans recorded by this
// process, in start order. Spans recorded by another process for the same
// request carry the same TraceID and stitch at export time.
type Trace struct {
	ID    TraceID `json:"id"`
	Root  string  `json:"root"`
	Spans []Span  `json:"spans"`
}

// activeTrace is a trace still being recorded. It finalizes — snapshots
// into the ring — when its last open span ends.
type activeTrace struct {
	id TraceID
	t0 time.Time

	mu    sync.Mutex
	spans []Span
	ended []bool
	open  int
}

// SpanContext is the propagated identity of the current request: which
// trace (if any) is recording and which span is the parent. The zero
// value means "tracing off" and makes every operation a no-op. Contexts
// are passed by value down the request path and across transports (see
// internal/wire's trace-context block).
type SpanContext struct {
	t     *Tracer
	at    *activeTrace // in-process fast path; nil after a wire crossing
	trace TraceID
	span  SpanID
	// deadline is the request's SLO budget expiry in unix nanoseconds
	// (0: none). It rides the context down the request path and across
	// transports so every layer — including remote servers — can shed
	// work that can no longer finish in time. Deadlines are orthogonal
	// to sampling: an unsampled (or even untraced) request still
	// carries its deadline.
	deadline int64
	// intended is the request's intended arrival instant in unix
	// nanoseconds (0: none); see WithIntendedUnixNano. In-process only.
	intended int64
	// lane is the request's record (see meter.Lane), opened by the
	// outermost metered rpc dispatch. In-process only: like at, it does
	// not cross a wire hop.
	lane *meter.Lane
}

// WithLane returns sc carrying the request's metering lane.
func (sc SpanContext) WithLane(l *meter.Lane) SpanContext {
	sc.lane = l
	return sc
}

// Lane returns the request's metering lane, or nil: every Lane method is
// nil-safe, so `sc.Lane().Enter(c)` is always legal.
func (sc SpanContext) Lane() *meter.Lane { return sc.lane }

// WithIntendedUnixNano returns sc carrying the request's intended arrival
// instant (open-loop schedule slot) in unix nanoseconds; 0 clears. The
// flight recorder measures queue wait and intended-clock latency from it.
func (sc SpanContext) WithIntendedUnixNano(ns int64) SpanContext {
	sc.intended = ns
	return sc
}

// IntendedUnixNano returns the intended arrival instant (0 if none).
func (sc SpanContext) IntendedUnixNano() int64 { return sc.intended }

// Sampled reports whether this request is recording spans.
func (sc SpanContext) Sampled() bool { return sc.t != nil && sc.trace != 0 }

// TraceID returns the trace identity for wire encoding (0 if unsampled).
func (sc SpanContext) TraceID() uint64 { return uint64(sc.trace) }

// SpanID returns the parent span identity for wire encoding.
func (sc SpanContext) SpanID() uint64 { return uint64(sc.span) }

// WithDeadline returns sc carrying the given SLO expiry. A zero time
// clears the deadline. Valid on any context, including the zero value —
// deadlines propagate even with tracing off.
func (sc SpanContext) WithDeadline(d time.Time) SpanContext {
	if d.IsZero() {
		sc.deadline = 0
	} else {
		sc.deadline = d.UnixNano()
	}
	return sc
}

// WithDeadlineUnixNano is WithDeadline from a wire-decoded value
// (0 clears).
func (sc SpanContext) WithDeadlineUnixNano(ns int64) SpanContext {
	sc.deadline = ns
	return sc
}

// HasDeadline reports whether the request carries an SLO expiry.
func (sc SpanContext) HasDeadline() bool { return sc.deadline != 0 }

// DeadlineUnixNano returns the SLO expiry for wire encoding (0 if none).
func (sc SpanContext) DeadlineUnixNano() int64 { return sc.deadline }

// SnapshotSpans returns a copy of the spans recorded so far for this
// request's in-process trace fragment, in start order. Nil when the
// request is unsampled or the context crossed a wire (the fragment lives
// in another process). Spans still open have zero Duration. The flight
// recorder calls this at completion time to retain the span tree of a
// tail exemplar before the trace finalizes into the ring.
func (sc SpanContext) SnapshotSpans() []Span {
	at := sc.at
	if at == nil {
		return nil
	}
	at.mu.Lock()
	out := append([]Span(nil), at.spans...)
	at.mu.Unlock()
	return out
}

// Active is a span in progress. The zero value (returned whenever the
// request is not sampled) ignores every call.
type Active struct {
	t   *Tracer
	at  *activeTrace
	idx int
}

// Recording reports whether this handle writes to a live span.
func (a Active) Recording() bool { return a.at != nil }

// Annotate attaches a key/value note to the span.
func (a Active) Annotate(key, value string) {
	if a.at == nil {
		return
	}
	a.at.mu.Lock()
	sp := &a.at.spans[a.idx]
	sp.Annotations = append(sp.Annotations, Annotation{Key: key, Value: value})
	a.at.mu.Unlock()
}

// AnnotateInt attaches an integer-valued note.
func (a Active) AnnotateInt(key string, v int64) {
	if a.at == nil {
		return
	}
	a.Annotate(key, strconv.FormatInt(v, 10))
}

// AnnotateBool attaches a true/false note.
func (a Active) AnnotateBool(key string, v bool) {
	if a.at == nil {
		return
	}
	a.Annotate(key, strconv.FormatBool(v))
}

// SetBytes records the payload sizes that crossed this span.
func (a Active) SetBytes(in, out int) {
	if a.at == nil {
		return
	}
	a.at.mu.Lock()
	sp := &a.at.spans[a.idx]
	sp.BytesIn, sp.BytesOut = int64(in), int64(out)
	a.at.mu.Unlock()
}

// End closes the span, setting its duration. Ending a span twice is a
// no-op. When the last open span of a trace ends, the trace finalizes
// into the tracer's ring buffer.
func (a Active) End() {
	if a.at == nil {
		return
	}
	now := a.t.now()
	a.at.mu.Lock()
	if a.at.ended[a.idx] {
		a.at.mu.Unlock()
		return
	}
	a.at.ended[a.idx] = true
	sp := &a.at.spans[a.idx]
	sp.Duration = now.Sub(a.at.t0) - sp.Start
	a.at.open--
	done := a.at.open == 0
	a.at.mu.Unlock()
	if done {
		a.t.finish(a.at)
	}
}

// Start opens a child span under sc. It returns the span handle and the
// context downstream work should carry (sc unchanged when not sampling).
// Safe on the zero context: both returns are inert.
func Start(sc SpanContext, component, op string) (Active, SpanContext) {
	if !sc.Sampled() {
		return Active{}, sc
	}
	return sc.t.start(sc, component, op)
}

// Config parameterizes a Tracer.
type Config struct {
	// SampleEvery records spans for one request in every SampleEvery.
	// Values <= 1 sample every request.
	SampleEvery int
	// Capacity is how many completed traces the ring buffer retains.
	// Default 16.
	Capacity int
	// Now is the span clock; nil uses time.Now. Tests inject a fixed
	// clock for fully deterministic output.
	Now func() time.Time
}

// Tracer samples request traces into a ring buffer. All methods are safe
// for concurrent use and nil-safe, so a disabled deployment simply passes
// a nil *Tracer around.
type Tracer struct {
	cfg Config

	seq       atomic.Uint64 // sampling sequence; never reset
	nextTrace atomic.Uint64
	nextSpan  atomic.Uint64

	mu       sync.Mutex
	inflight map[TraceID]*activeTrace
	ring     []*Trace
}

// New builds a Tracer.
func New(cfg Config) *Tracer {
	if cfg.SampleEvery < 1 {
		cfg.SampleEvery = 1
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 16
	}
	return &Tracer{cfg: cfg, inflight: make(map[TraceID]*activeTrace)}
}

func (t *Tracer) now() time.Time {
	if t.cfg.Now != nil {
		return t.cfg.Now()
	}
	return time.Now()
}

// StartRequest opens the root span of a new request trace, applying the
// sampling decision. The returned context is what the request path should
// carry; the returned handle ends the root span. On a nil tracer or an
// unsampled request both returns are inert.
func (t *Tracer) StartRequest(op string) (SpanContext, Active) {
	if t == nil {
		return SpanContext{}, Active{}
	}
	n := t.seq.Add(1)
	if t.cfg.SampleEvery > 1 && (n-1)%uint64(t.cfg.SampleEvery) != 0 {
		return SpanContext{}, Active{}
	}
	id := TraceID(t.nextTrace.Add(1))
	at := &activeTrace{id: id, t0: t.now()}
	t.mu.Lock()
	t.inflight[id] = at
	t.mu.Unlock()
	root := SpanContext{t: t, at: at, trace: id}
	sp, _ := t.start(root, "request", op)
	return sp.context(), sp
}

// Join rebuilds a context from wire-decoded identities, binding it to
// this tracer. Spans started under a joined context land in a local trace
// fragment carrying the remote trace ID, so cross-process traces stitch
// by ID at export time. An unsampled identity joins as the inert context.
// Nil-safe.
func (t *Tracer) Join(traceID, spanID uint64, sampled bool) SpanContext {
	if t == nil || !sampled || traceID == 0 {
		return SpanContext{}
	}
	return SpanContext{t: t, trace: TraceID(traceID), span: SpanID(spanID)}
}

// start records a new span under sc. sc must be sampled.
func (t *Tracer) start(sc SpanContext, component, op string) (Active, SpanContext) {
	at := sc.at
	if at == nil {
		at = t.lookup(sc.trace)
	}
	sid := SpanID(t.nextSpan.Add(1))
	now := t.now()
	at.mu.Lock()
	idx := len(at.spans)
	at.spans = append(at.spans, Span{
		ID:        sid,
		Parent:    sc.span,
		Component: component,
		Op:        op,
		Start:     now.Sub(at.t0),
	})
	at.ended = append(at.ended, false)
	at.open++
	at.mu.Unlock()
	a := Active{t: t, at: at, idx: idx}
	return a, SpanContext{t: t, at: at, trace: at.id, span: sid,
		deadline: sc.deadline, intended: sc.intended, lane: sc.lane}
}

// context rebuilds the handle's own span context (used for the root).
func (a Active) context() SpanContext {
	if a.at == nil {
		return SpanContext{}
	}
	a.at.mu.Lock()
	sid := a.at.spans[a.idx].ID
	a.at.mu.Unlock()
	return SpanContext{t: a.t, at: a.at, trace: a.at.id, span: sid}
}

// lookup finds the in-flight trace for a wire-joined context, creating a
// local fragment when this tracer has never seen the trace (the remote
// half lives in another process).
func (t *Tracer) lookup(id TraceID) *activeTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	if at, ok := t.inflight[id]; ok {
		return at
	}
	at := &activeTrace{id: id, t0: t.now()}
	t.inflight[id] = at
	return at
}

// finish snapshots a completed trace into the ring.
func (t *Tracer) finish(at *activeTrace) {
	at.mu.Lock()
	tr := &Trace{ID: at.id, Spans: append([]Span(nil), at.spans...)}
	at.mu.Unlock()
	if len(tr.Spans) > 0 {
		tr.Root = tr.Spans[0].Op
	}
	t.mu.Lock()
	delete(t.inflight, at.id)
	t.ring = append(t.ring, tr)
	if over := len(t.ring) - t.cfg.Capacity; over > 0 {
		t.ring = append(t.ring[:0:0], t.ring[over:]...)
	}
	t.mu.Unlock()
}

// Traces returns the completed traces currently in the ring, oldest
// first. Nil-safe.
func (t *Tracer) Traces() []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Trace(nil), t.ring...)
}

// Last returns the most recently completed trace, or nil.
func (t *Tracer) Last() *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) == 0 {
		return nil
	}
	return t.ring[len(t.ring)-1]
}

// ResetTraces empties the ring buffer (in-flight traces keep recording).
func (t *Tracer) ResetTraces() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring = nil
	t.mu.Unlock()
}
