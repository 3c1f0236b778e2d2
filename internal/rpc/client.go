package rpc

import (
	"bufio"
	"fmt"
	"net"
	"sync"

	"cachecost/internal/meter"
	"cachecost/internal/trace"
)

// Client is a multiplexing TCP connection to a Server. Many goroutines may
// Call concurrently over one Client; responses are matched to callers by
// frame ID.
type Client struct {
	conn net.Conn

	wmu sync.Mutex // serializes writes

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan callResult
	err     error // sticky transport error

	comp    *meter.Component // caller-side overhead attribution; may be nil
	burner  *meter.Burner
	cost    CostModel
	metrics *Metrics // per-message telemetry; may be nil
}

type callResult struct {
	body []byte
	err  error
}

// frameBufPool recycles frame-encode scratch buffers on both the client
// and server write paths. Frames are fully written to the socket before
// the buffer is returned, so steady-state encoding allocates nothing.
var frameBufPool = sync.Pool{
	New: func() any { return new([]byte) },
}

// Dial connects to a Server at addr. comp (optional) receives the caller's
// transport overhead charges under the given cost model.
func Dial(addr string, comp *meter.Component, burner *meter.Burner, cost CostModel) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		pending: make(map[uint64]chan callResult),
		comp:    comp,
		burner:  burner,
		cost:    cost,
	}
	go c.readLoop()
	return c, nil
}

// Call implements Conn.
func (c *Client) Call(method string, req []byte) ([]byte, error) {
	return c.call(nil, &frame{kind: frameRequest, method: method, body: req})
}

// CallCtx implements TraceConn: the hop is counted on the request's lane
// and, when sampled, recorded as an "rpc" span (annotated rpc.hop=tcp),
// and when the request is sampled or carries a deadline the span context
// is embedded in the frame so the server's spans stitch into this trace
// by ID and its admission control sees the caller's SLO budget.
func (c *Client) CallCtx(sc trace.SpanContext, method string, req []byte) ([]byte, error) {
	sc.Lane().CountHop()
	if !sc.Sampled() && !sc.HasDeadline() {
		return c.call(sc.Lane(), &frame{kind: frameRequest, method: method, body: req})
	}
	act, down := trace.Start(sc, "rpc", method)
	act.Annotate("rpc.hop", "tcp")
	f := frame{kind: frameRequest, method: method, body: req}
	if down.Sampled() || down.HasDeadline() {
		f.kind = frameRequestTraced
		f.traceID, f.spanID, f.sampled = down.TraceID(), down.SpanID(), down.Sampled()
		f.deadline = down.DeadlineUnixNano()
	}
	resp, err := c.call(sc.Lane(), &f)
	act.SetBytes(len(req), len(resp))
	act.End()
	return resp, err
}

// SetMetrics binds per-message telemetry (round-trip latency, sizes,
// error counts). Call before the connection is used; it is not
// synchronized against Call.
func (c *Client) SetMetrics(m *Metrics) { c.metrics = m }

// call sends one pre-built request frame (kind, method, body and trace
// context set by the caller) and waits for its response. The caller's
// lane is parked across the wait: time on the socket is nobody's CPU.
func (c *Client) call(l *meter.Lane, f *frame) ([]byte, error) {
	start := c.metrics.begin()
	req := f.body
	c.cost.Charge(l, c.comp, c.burner, len(req))

	ch := make(chan callResult, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()
	f.id = id

	bp := frameBufPool.Get().(*[]byte)
	buf, err := appendFrame((*bp)[:0], f)
	if err != nil {
		frameBufPool.Put(bp)
		c.forget(id)
		c.metrics.end(start, len(req), 0, err)
		return nil, err
	}
	c.wmu.Lock()
	_, err = c.conn.Write(buf)
	c.wmu.Unlock()
	*bp = buf
	frameBufPool.Put(bp)
	if err != nil {
		c.forget(id)
		c.metrics.end(start, len(req), 0, err)
		return nil, err
	}

	l.Park()
	res := <-ch
	l.Unpark()
	if res.err != nil {
		c.metrics.end(start, len(req), 0, res.err)
		return nil, res.err
	}
	c.cost.Charge(l, c.comp, c.burner, len(res.body))
	c.metrics.end(start, len(req), len(res.body), nil)
	return res.body, nil
}

func (c *Client) forget(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// readLoop delivers responses to waiting callers until the connection
// fails, at which point every pending and future call fails with the
// transport error.
func (c *Client) readLoop() {
	var rd frame
	br := bufio.NewReader(c.conn)
	for {
		if err := readFrame(br, &rd); err != nil {
			c.fail(fmt.Errorf("rpc: connection lost: %w", err))
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[rd.id]
		delete(c.pending, rd.id)
		c.mu.Unlock()
		if !ok {
			continue // cancelled or duplicate; drop
		}
		switch rd.kind {
		case frameResponse:
			ch <- callResult{body: append(GetBuffer(), rd.body...)}
		case frameError:
			ch <- callResult{err: &RemoteError{Method: rd.method, Msg: string(rd.body)}}
		default:
			ch <- callResult{err: fmt.Errorf("rpc: bad frame kind %d", rd.kind)}
		}
	}
}

func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	for id, ch := range c.pending {
		ch <- callResult{err: err}
		delete(c.pending, id)
	}
	c.mu.Unlock()
}

// Close implements Conn.
func (c *Client) Close() error {
	err := c.conn.Close()
	c.fail(net.ErrClosed)
	return err
}
