package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"cachecost/internal/rpc"
	"cachecost/internal/trace"
)

// Span kinds: the client's root spans, then one kind per RPC method the
// service issues through the cache and storage connections.
const (
	kindRead uint8 = iota
	kindWrite
	kindCacheGet
	kindCacheSet
	kindCacheDelete
	kindCacheOther
	kindQuery
	kindExec
	kindStorageOther
	numKinds
)

var kindNames = [numKinds]string{
	"client.Read", "client.Write",
	"cache.Get", "cache.Set", "cache.Delete", "cache.other",
	"sql.Query", "sql.Exec", "sql.other",
}

const (
	layerClient uint8 = iota
	layerCache
	layerStorage
	numLayers
)

func layerOf(kind uint8) uint8 {
	switch {
	case kind <= kindWrite:
		return layerClient
	case kind <= kindCacheOther:
		return layerCache
	}
	return layerStorage
}

func kindOf(layer uint8, method string) uint8 {
	switch method {
	case "cache.Get":
		return kindCacheGet
	case "cache.Set":
		return kindCacheSet
	case "cache.Delete":
		return kindCacheDelete
	case "sql.Query":
		return kindQuery
	case "sql.Exec":
		return kindExec
	}
	if layer == layerCache {
		return kindCacheOther
	}
	return kindStorageOther
}

// span is one recorded interval. Where one client runs (every in-process
// workload) a child carries its request id and the index of its root; on
// the socket deployment the service handles two requests at once, so
// children carry only the pool-connection index and self time is
// computed in aggregate.
type span struct {
	kind       uint8
	conn       int8
	parent     int32
	req        int32
	start, end int64 // ns since the recorder's epoch
}

// recorder keeps spans in memory; dump writes them out when the
// benchmark ends. Recording is off except during traced slices.
type recorder struct {
	on     atomic.Bool
	single bool // one client: children attach to the open root
	epoch  time.Time

	mu    sync.Mutex
	spans []span
	cur   int32 // open root when single, else -1
	req   int32
}

func newRecorder(single bool) *recorder {
	return &recorder{single: single, epoch: time.Now(), cur: -1, req: -1}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a root span for request req and returns its index.
func (r *recorder) begin(kind uint8, req int32) int32 {
	t := r.now()
	r.mu.Lock()
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{kind: kind, conn: -1, parent: -1, req: req, start: t})
	if r.single {
		r.cur, r.req = i, req
	}
	r.mu.Unlock()
	return i
}

// end closes root span i and returns its duration in ns.
func (r *recorder) end(i int32) int64 {
	t := r.now()
	r.mu.Lock()
	r.spans[i].end = t
	d := t - r.spans[i].start
	r.cur, r.req = -1, -1
	r.mu.Unlock()
	return d
}

func (r *recorder) child(kind uint8, conn int8, start, end int64) {
	r.mu.Lock()
	r.spans = append(r.spans, span{kind: kind, conn: conn, parent: r.cur, req: r.req, start: start, end: end})
	r.mu.Unlock()
}

// spanConn wraps a connection the benchmark hands to the service and,
// while the recorder is on, records one child span per call, labelled by
// RPC method. Off, it costs one atomic load per call.
type spanConn struct {
	next  rpc.Conn
	layer uint8
	idx   int8 // pool-connection index; 0 in-process
	rec   *recorder
}

func (c *spanConn) Call(method string, req []byte) ([]byte, error) {
	return c.CallCtx(trace.SpanContext{}, method, req)
}

// CallCtx implements rpc.TraceConn so a span context the service
// propagates still reaches the wrapped transport.
func (c *spanConn) CallCtx(sc trace.SpanContext, method string, req []byte) ([]byte, error) {
	if !c.rec.on.Load() {
		return rpc.CallTraced(c.next, sc, method, req)
	}
	t0 := c.rec.now()
	resp, err := rpc.CallTraced(c.next, sc, method, req)
	c.rec.child(kindOf(c.layer, method), c.idx, t0, c.rec.now())
	return resp, err
}

func (c *spanConn) Close() error { return c.next.Close() }

// traceStats is the fold of a recorder's spans.
type traceStats struct {
	roots  int64
	rootNS int64
	// selfNS is root time not covered by child spans: the service's own
	// front door, cache client and codec work ("core").
	selfNS int64
	hopNS  [numLayers]int64
	calls  [numKinds]int64
	durNS  [numKinds]int64
	// overrun counts requests whose children sum past their root — zero
	// unless the accounting is broken.
	overrun int64
	// reqsOf lists, per child kind, the request ids that issued it, in
	// order: the inputs the replay re-issues.
	reqsOf [numKinds][]int32
}

func (r *recorder) stats() traceStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	var st traceStats
	childNS := make([]int64, len(r.spans))
	for _, s := range r.spans {
		d := s.end - s.start
		st.calls[s.kind]++
		st.durNS[s.kind] += d
		if layerOf(s.kind) == layerClient {
			st.roots++
			st.rootNS += d
			continue
		}
		st.hopNS[layerOf(s.kind)] += d
		if s.parent >= 0 {
			childNS[s.parent] += d
			st.reqsOf[s.kind] = append(st.reqsOf[s.kind], s.req)
		}
	}
	for i, s := range r.spans {
		if layerOf(s.kind) == layerClient && childNS[i] > s.end-s.start {
			st.overrun++
		}
	}
	st.selfNS = st.rootNS - st.hopNS[layerCache] - st.hopNS[layerStorage]
	return st
}

// dump writes every span as one CSV row.
func (r *recorder) dump(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,conn,parent,request,start_ns,end_ns")
	for _, s := range r.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n", kindNames[s.kind], s.conn, s.parent, s.req, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
