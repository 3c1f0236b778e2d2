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
// frame ID. Each in-flight call holds a slot from the client's free list
// and each request is encoded into the client's one write buffer, so a
// steady-state call allocates nothing.
type Client struct {
	conn net.Conn

	wmu  sync.Mutex // serializes writes
	wbuf []byte     // frame-encode buffer, guarded by wmu

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*pendingCall
	free    []*pendingCall // idle call slots
	err     error          // sticky transport error

	comp    *meter.Component // caller-side overhead attribution; may be nil
	burner  *meter.Burner
	cost    CostModel
	metrics *Metrics // per-message telemetry; may be nil
}

// pendingCall is a reusable call slot. Whoever takes it out of pending —
// readLoop with the response, or fail — fills res and signals done once;
// the caller reads res and returns the slot to the free list.
type pendingCall struct {
	done chan struct{} // capacity 1
	res  callResult
}

type callResult struct {
	body []byte
	err  error
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
		pending: make(map[uint64]*pendingCall),
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
// by ID and the front door sees the caller's SLO deadline.
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
// lane is parked across the wait: time on the socket is nobody's CPU. A
// call on a connection that has already failed is counted as an error and
// charged nothing: no message reaches the wire.
func (c *Client) call(l *meter.Lane, f *frame) ([]byte, error) {
	start := c.metrics.begin()
	req := f.body
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		c.metrics.end(start, len(req), 0, err)
		return nil, err
	}
	p := c.slot()
	c.nextID++
	f.id = c.nextID
	c.pending[f.id] = p
	c.mu.Unlock()

	c.cost.Charge(l, c.comp, c.burner, len(req))
	c.wmu.Lock()
	buf, err := appendFrame(c.wbuf[:0], f)
	if err == nil {
		_, err = c.conn.Write(buf)
		c.wbuf = keep(buf)
	}
	c.wmu.Unlock()
	if err != nil {
		c.forget(f.id, p)
		c.metrics.end(start, len(req), 0, err)
		return nil, err
	}

	l.Park()
	<-p.done
	l.Unpark()
	res := p.res
	c.release(p)
	if res.err != nil {
		c.metrics.end(start, len(req), 0, res.err)
		return nil, res.err
	}
	c.cost.Charge(l, c.comp, c.burner, len(res.body))
	c.metrics.end(start, len(req), len(res.body), nil)
	return res.body, nil
}

// slot takes an idle call slot, making one if none is free. c.mu is held.
func (c *Client) slot() *pendingCall {
	if n := len(c.free); n > 0 {
		p := c.free[n-1]
		c.free = c.free[:n-1]
		return p
	}
	return &pendingCall{done: make(chan struct{}, 1)}
}

// release returns a slot whose signal has been taken to the free list.
func (c *Client) release(p *pendingCall) {
	p.res = callResult{}
	c.mu.Lock()
	c.free = append(c.free, p)
	c.mu.Unlock()
}

// forget withdraws a call whose request never reached the wire. If
// readLoop or fail claimed the slot first, its signal is taken (and any
// response buffer recycled) before the slot goes back to the free list, so
// the slot's next call cannot wake on this one's result.
func (c *Client) forget(id uint64, p *pendingCall) {
	c.mu.Lock()
	_, ours := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	if !ours {
		<-p.done
		PutBuffer(p.res.body)
	}
	c.release(p)
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
		p, ok := c.pending[rd.id]
		delete(c.pending, rd.id)
		c.mu.Unlock()
		if !ok {
			continue // cancelled or duplicate; drop
		}
		switch rd.kind {
		case frameResponse:
			p.res.body = append(GetBufferCap(len(rd.body)), rd.body...)
		case frameError:
			p.res.err = &RemoteError{Method: rd.method, Msg: string(rd.body)}
		default:
			p.res.err = fmt.Errorf("rpc: bad frame kind %d", rd.kind)
		}
		p.done <- struct{}{}
	}
}

func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	for id, p := range c.pending {
		delete(c.pending, id)
		p.res.err = err
		p.done <- struct{}{}
	}
	c.mu.Unlock()
}

// Close implements Conn.
func (c *Client) Close() error {
	err := c.conn.Close()
	c.fail(net.ErrClosed)
	return err
}
