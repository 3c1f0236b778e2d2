package rpc

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"cachecost/internal/freelist"
	"cachecost/internal/meter"
	"cachecost/internal/trace"
)

// FlightRecorder is the completion-time flight-recorder hook a front-door
// server drives (implemented by internal/flight, declared here so the
// transport does not depend on it). Begin arms the request's lane to time
// its stages before the handler runs; Done, called after the handler
// returns with the lane's last lap ended, turns the lane into a flight
// record and makes the tail-retention decision — at completion, when
// outcome and latency are known.
type FlightRecorder interface {
	Begin(sc trace.SpanContext) trace.SpanContext
	Done(sc trace.SpanContext, method string, start time.Time, dur time.Duration, err error)
}

// Server dispatches incoming calls to registered handlers and attributes
// the CPU they consume — handler body plus transport overhead — to a meter
// component.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]HandlerCtxFunc

	comp   *meter.Component // may be nil: unmetered
	burner *meter.Burner
	cost   CostModel

	// tracer joins wire-carried span contexts for requests arriving over
	// TCP; traceName labels the server-side dispatch span. In-process
	// transports pass their context straight into DispatchCtx instead.
	tracer    *trace.Tracer
	traceName string
	// meterBody controls whether the handler body runs as a lap of the
	// server's component. Servers whose handlers walk the lane through
	// finer components (the front door, the storage node) disable it;
	// transport overhead is charged to comp either way.
	meterBody bool
	// pooledResp records that every handler builds its response in a
	// GetBuffer buffer, so a copying transport recycles it (see recycle).
	pooledResp bool
	// metrics, when set, records per-dispatch latency and sizes.
	metrics *Metrics
	// flight, when set, records a per-request flight record around each
	// dispatch that opens a lane. Set only on front-door servers: a nested
	// in-process dispatch rides its caller's lane and is not re-recorded.
	flight FlightRecorder

	lnMu      sync.Mutex
	listeners map[net.Listener]struct{}
	closed    bool
}

// NewServer returns a server that attributes work to comp using the given
// transport cost model. comp may be nil to disable metering; burner may be
// nil when the cost model is zero.
func NewServer(comp *meter.Component, burner *meter.Burner, cost CostModel) *Server {
	return &Server{
		handlers:  make(map[string]HandlerCtxFunc),
		comp:      comp,
		burner:    burner,
		cost:      cost,
		meterBody: true,
		listeners: make(map[net.Listener]struct{}),
	}
}

// SetTracer binds a tracer used to join span contexts carried by TCP
// frames, and names the server-side dispatch span (e.g. "storage.rpc").
// In-process transports bypass this: they hand their span context
// directly to DispatchCtx.
func (s *Server) SetTracer(t *trace.Tracer, name string) {
	if name == "" {
		name = "rpc.server"
	}
	s.tracer, s.traceName = t, name
}

// SetMeterHandlerBody controls whether Dispatch attributes handler busy
// time to the server's component (default true). Disable it when the
// handlers meter their own work against finer-grained components.
func (s *Server) SetMeterHandlerBody(on bool) { s.meterBody = on }

// SetPooledResponses declares that every handler on this server builds
// its response in a GetBuffer buffer and gives it up on return (DESIGN.md,
// "Buffer ownership"). It is a declaration, not a default, because a
// transport cannot tell a pool buffer from one its handler still shares
// with someone else, and recycling the latter corrupts a stranger's
// request. Call before the server receives traffic.
func (s *Server) SetPooledResponses(on bool) { s.pooledResp = on }

// recycle hands a handler's response back to the pool once a copying
// transport is done with it — after the loopback's copy, after the
// socket write. A response built over the request (echo-style) is left
// alone: the request buffer has its own owner.
func (s *Server) recycle(resp, req []byte) {
	if s.pooledResp && !overlaps(resp, req) {
		PutBuffer(resp)
	}
}

// SetMetrics binds per-dispatch telemetry (handler latency, message
// sizes, error counts). Call before the server receives traffic; it is
// not synchronized against Dispatch.
func (s *Server) SetMetrics(m *Metrics) { s.metrics = m }

// SetFlight binds the flight recorder driven around each dispatch. Set
// it on front-door servers only; like SetMetrics it must be called
// before the server receives traffic.
func (s *Server) SetFlight(f FlightRecorder) { s.flight = f }

// Handle registers fn for method. Registering the same method twice
// replaces the earlier handler.
func (s *Server) Handle(method string, fn HandlerFunc) {
	s.HandleCtx(method, func(_ trace.SpanContext, req []byte) ([]byte, error) {
		return fn(req)
	})
}

// HandleCtx registers a context-aware handler for method: it receives the
// caller's span context, carrying the request's lane on a metered server,
// so it can record spans and walk and count on the lane.
func (s *Server) HandleCtx(method string, fn HandlerCtxFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = fn
}

// Dispatch runs the handler for method on req, metering handler time and
// charging transport overhead for the inbound and outbound message. It is
// exported so the loopback transport and tests can drive a server without
// a socket.
func (s *Server) Dispatch(method string, req []byte) ([]byte, error) {
	return s.DispatchCtx(trace.SpanContext{}, method, req)
}

// DispatchCtx is Dispatch carrying the caller's span context through to
// the handler. The outermost metered dispatch of a request — one whose
// context carries no lane yet — opens the request's lane, its one record,
// and closes it on return; nested in-process dispatches ride it. On a
// server with a flight recorder bound, the dispatch that opens the lane
// also brackets the handler with the recorder's Begin/Done, so every
// request leaves one completion-time flight record.
func (s *Server) DispatchCtx(sc trace.SpanContext, method string, req []byte) ([]byte, error) {
	if s.comp == nil || sc.Lane() != nil {
		return s.dispatch(sc, method, req)
	}
	lane := meter.OpenLane(s.comp)
	defer lane.Close()
	sc = sc.WithLane(lane)
	if s.flight == nil {
		return s.dispatch(sc, method, req)
	}
	sc = s.flight.Begin(sc)
	t0 := time.Now()
	resp, err := s.dispatch(sc, method, req)
	dur := time.Since(t0)
	lane.Park() // the request is done: its last lap ends before Done reads it
	s.flight.Done(sc, method, t0, dur, err)
	return resp, err
}

// dispatch runs the handler and then charges both messages' transport
// overhead in one lap of the server's component. With meterBody on, the
// handler runs inside that lap. With it off, the handler walks the lane
// on through its own finer components and leaves it wherever it ended;
// the server's component is entered once, after the handler, not once per
// message, and the lane is handed back to the caller's component.
func (s *Server) dispatch(sc trace.SpanContext, method string, req []byte) ([]byte, error) {
	s.mu.RLock()
	fn, ok := s.handlers[method]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchMethod, method)
	}
	start := s.metrics.begin()
	lane := sc.Lane()
	prev := lane.Current()
	if s.meterBody {
		lane.EnterOp(s.comp)
	}
	resp, err := fn(sc, req)
	if s.comp != nil {
		lane.Enter(s.comp)
		s.cost.Charge(lane, s.comp, s.burner, len(req))
		s.cost.Charge(lane, s.comp, s.burner, len(resp))
	}
	lane.Leave(prev)
	s.metrics.end(start, len(req), len(resp), err)
	return resp, err
}

// Serve accepts connections on l until l is closed or the server is
// closed. It always returns a non-nil error; after Close the error is
// net.ErrClosed.
func (s *Server) Serve(l net.Listener) error {
	s.lnMu.Lock()
	if s.closed {
		s.lnMu.Unlock()
		l.Close()
		return net.ErrClosed
	}
	s.listeners[l] = struct{}{}
	s.lnMu.Unlock()
	defer func() {
		s.lnMu.Lock()
		delete(s.listeners, l)
		s.lnMu.Unlock()
	}()

	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go s.serveConn(conn)
	}
}

// Close stops all listeners. In-flight calls complete.
func (s *Server) Close() error {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	s.closed = true
	var first error
	for l := range s.listeners {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// serveConn demultiplexes frames from one connection. The reader hands
// each request to a parked worker and starts a new worker only when none
// is idle, so a slow handler does not head-of-line block the connection
// and a steady stream of calls reuses the same few goroutines. Closing
// work on disconnect reaps them once their current request is done;
// writes are serialized by a per-connection mutex.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	var wmu sync.Mutex
	work := make(chan *inbound)
	defer close(work)
	var rd frame
	br := bufio.NewReader(conn) // one read syscall can deliver header, payload and the next frame
	for {
		if err := readFrame(br, &rd); err != nil {
			return // connection closed or corrupt; drop it
		}
		if rd.kind != frameRequest && rd.kind != frameRequestTraced {
			return // protocol violation
		}
		// The request body is copied out of the read frame into the
		// inbound's own buffer; ownership is DESIGN.md's "Buffer
		// ownership" table.
		in := inboundPool.Get()
		in.id, in.method = rd.id, rd.method
		in.traceID, in.spanID, in.sampled, in.deadline = rd.traceID, rd.spanID, rd.sampled, rd.deadline
		in.body = append(in.body[:0], rd.body...)
		select {
		case work <- in:
		default:
			go s.worker(conn, &wmu, work)
			work <- in
		}
	}
}

// inbound is one request on its way from a connection's reader to a
// worker. Inbounds are pooled with their body buffers.
type inbound struct {
	id       uint64
	method   string
	traceID  uint64
	spanID   uint64
	sampled  bool
	deadline int64
	body     []byte
}

var inboundPool = freelist.List[*inbound]{New: func() *inbound { return new(inbound) }}

// worker serves the requests one connection's reader hands it until the
// connection closes, encoding each response into a buffer it keeps.
func (s *Server) worker(conn net.Conn, wmu *sync.Mutex, work <-chan *inbound) {
	var buf []byte
	for in := range work {
		buf = s.serveFrame(conn, wmu, in, buf)
	}
}

// serveFrame dispatches one request, writes its response frame and
// returns the encode buffer for the worker's next request.
func (s *Server) serveFrame(conn net.Conn, wmu *sync.Mutex, in *inbound, buf []byte) []byte {
	// Join the wire-carried span context so the handler's spans land in a
	// local fragment of the caller's trace; the server-side dispatch span
	// is recorded here (never in DispatchCtx) so in-process transports do
	// not get a duplicate. The wire deadline re-attaches even when the
	// server has no tracer — the front door must see the SLO deadline
	// either way.
	sc := s.tracer.Join(in.traceID, in.spanID, in.sampled).WithDeadlineUnixNano(in.deadline)
	act, hsc := trace.Start(sc, s.traceName, in.method)
	resp, err := s.DispatchCtx(hsc, in.method, in.body)
	act.SetBytes(len(in.body), len(resp))
	act.End()
	out := frame{id: in.id, kind: frameResponse, body: resp}
	if err != nil {
		out = frame{id: in.id, kind: frameError, method: in.method, body: []byte(err.Error())}
	}
	buf, ferr := appendFrame(buf, &out)
	if ferr != nil {
		out = frame{id: in.id, kind: frameError, method: in.method, body: []byte(ferr.Error())}
		buf, _ = appendFrame(nil, &out)
	}
	// resp may alias the request body (an echo-style handler): both are
	// released only now that the frame holds a copy.
	s.recycle(resp, in.body)
	in.body = keep(in.body)
	inboundPool.Put(in)
	wmu.Lock()
	_, werr := conn.Write(buf)
	wmu.Unlock()
	if werr != nil && !errors.Is(werr, net.ErrClosed) {
		conn.Close()
	}
	return keep(buf)
}
