package core

import (
	"fmt"
	"strings"
	"time"
	"unsafe"

	"cachecost/internal/linkedcache"
	"cachecost/internal/rpc"
	"cachecost/internal/storage"
	"cachecost/internal/trace"
	"cachecost/internal/wire"
)

// The front door. KVService and CatalogService are two instances of one
// service over an application port: the application says what its object
// is and where it lives, what a read answers, and what a write leaves
// behind; everything else — lanes, deadline expiry, the tier calls,
// batching, hit accounting, the wire shapes — is stated once, here and in
// batch.go.

// application is one application's port into the front door.
type application[V any] struct {
	// kit is the application's object: its cache budget and wire form.
	kit objectKit[V]
	// source builds a lane's storage path over the lane's storage client.
	source func(db *storage.Client) source[V]
	// answer writes what the client asked of v — field 2 of the read
	// response — into e, and returns the size in bytes of the object it
	// answered from.
	answer func(e *wire.Encoder, v V) int
	// object, when set, returns the whole object a write's payload
	// produces, sharing nothing with the payload, so a write-through tier
	// can keep it. Nil: every write drops the cached entry.
	object func(payload []byte) V
}

// service is the front door of one application under one architecture.
// Its own Read/Write/ReadDeadline/WriteDeadline/SetIntended/ReadBatch/
// WriteBatch are the default lane's client's (worker -1, the default fault
// stream).
type service[V any] struct {
	AppClient
	deployment
	app application[V]

	// arch is the built architecture: the cache state every lane's tier
	// shares, and the binder newLane makes each lane's tier with.
	arch *architecture[V]
	// l is the default lane; lanes are the worker lanes when Parallelism
	// > 1.
	l     *lane[V]
	lanes []*lane[V]

	// hitCount is the application-level cache accounting, counted at the
	// tier call on the full path (an expired request makes no tier call
	// and stays out of it).
	hitCount

	// obs, when set (before traffic starts), observes every successful
	// read — the elastic controller's demand feed.
	obs func(key string, size int64)
}

// lane is one request path through the service: a front door whose
// handlers run the lane's tier over the lane's private storage path. The
// tier is bound to the lane's cache client stack and fault decision
// stream, so the default lane (worker -1) reproduces the historical
// single-threaded behaviour exactly and worker lanes give the concurrent
// driver contention-free, deterministic request paths. (Busy-time
// attribution is per request, not per lane: see meter.Lane.)
type lane[V any] struct {
	front *rpc.Server
	src   source[V]
	tier  tier[V]
}

// finish builds app's front door on the built deployment: the
// architecture and the request lanes. eps carries a distributed
// deployment's connections (zero in process).
func (s *service[V]) finish(app application[V], eps RemoteEndpoints) error {
	s.app = app
	cfg := s.cfg
	var err error
	if s.arch, err = newArchitecture(&s.cfg, app.kit); err != nil {
		return err
	}
	if s.l, err = s.newLane(-1, eps); err != nil {
		return err
	}
	s.AppClient = AppClient{conn: rpc.NewDirect(s.l.front), tracer: cfg.Tracer}
	if cfg.Parallelism == 1 {
		return nil
	}
	s.lanes = make([]*lane[V], cfg.Parallelism)
	for i := range s.lanes {
		if s.lanes[i], err = s.newLane(i, RemoteEndpoints{}); err != nil {
			return err
		}
	}
	return nil
}

// newLane builds request lane worker (-1 is the default lane): its private
// paths below the app, the architecture's tier bound to them, and a front
// door in front.
func (s *service[V]) newLane(worker int, eps RemoteEndpoints) (*lane[V], error) {
	db, rc, err := s.lanePath(worker, eps)
	if err != nil {
		return nil, err
	}
	l := &lane[V]{src: s.app.source(db), tier: s.arch.bind(worker, rc)}
	l.front = s.newFront()
	l.front.SetPooledResponses(true) // encodeReadOut, encodeAck, handleReadBatch
	l.front.HandleCtx("app.Read", func(sc trace.SpanContext, req []byte) ([]byte, error) { return s.handleRead(l, sc, req) })
	l.front.HandleCtx("app.Write", func(sc trace.SpanContext, req []byte) ([]byte, error) { return s.handleWrite(l, sc, req) })
	l.front.HandleCtx("app.ReadBatch", func(sc trace.SpanContext, req []byte) ([]byte, error) { return s.handleReadBatch(l, sc, req) })
	l.front.HandleCtx("app.WriteBatch", func(sc trace.SpanContext, req []byte) ([]byte, error) { return s.handleWriteBatch(l, sc, req) })
	return l, nil
}

// Worker returns the client of lane i. The service must have been built
// with Parallelism > i.
func (s *service[V]) Worker(i int) (ServiceWorker, error) {
	if i < 0 || i >= len(s.lanes) {
		return nil, fmt.Errorf("core: worker %d of %d-lane service", i, len(s.lanes))
	}
	return NewAppClient(rpc.NewDirect(s.lanes[i].front), s.cfg.Tracer), nil
}

// LinkedCache returns the Linked tier's cache, or nil on other
// architectures. The elastic controller resizes through it. Its entries
// are the fill guard's, each object under an empty stamp.
func (s *service[V]) LinkedCache() *linkedcache.Cache[stamped[V, struct{}]] { return s.arch.lc }

// SetAccessObserver installs a hook observing every successful read's
// key and cached-entry footprint (the kit's sizeOf) — the elastic
// controller's demand feed. Install it before traffic starts; it is read
// without synchronization on the hot path.
func (s *service[V]) SetAccessObserver(fn func(key string, size int64)) { s.obs = fn }

// Front returns the client-facing RPC server.
func (s *service[V]) Front() *rpc.Server { return s.l.front }

// CacheHitRatio reports the architecture's application-level cache hit
// ratio since construction (0 for Base).
func (s *service[V]) CacheHitRatio() float64 { return hitRatio(s.cacheStats()) }

// read serves key through the lane's tier, counts the outcome, and feeds
// the access observer when one is installed (the elastic controller's
// windowed MRC), which keeps a copy of key: key may alias the request.
// held is tier.read's: the caller recycles it once it is done with v. A
// failed read recycles its own.
func (s *service[V]) read(l *lane[V], sc trace.SpanContext, key string) (v V, held []byte, err error) {
	v, held, hit, err := l.tier.read(sc, key, l.src)
	s.countOne(hit)
	if err != nil {
		rpc.PutBuffer(held)
		return v, nil, err
	}
	if obs := s.obs; obs != nil {
		obs(strings.Clone(key), s.app.kit.sizeOf(key, v))
	}
	return v, held, nil
}

// write applies a write on lane l. Where the payload is the whole object,
// a tier that can keep it does; the rest invalidate. key and payload may
// only be valid for the call (they alias the request), so what a tier
// keeps is its own copy: the application's object here, the key's where
// it is kept (the linked cache).
func (s *service[V]) write(l *lane[V], sc trace.SpanContext, key string, payload []byte) error {
	if wt, ok := l.tier.(writeThrough[V]); ok && s.app.object != nil {
		return wt.write(sc, key, s.app.object(payload), payload, l.src)
	}
	return l.tier.drop(sc, key, payload, l.src)
}

// readOutSize is the reply room a read reserves: a digest answer and its
// framing fit, so a pooled ack-sized buffer is replaced in one step rather
// than grown field by field.
const readOutSize = 64

// encodeReadOut encodes the GetResponse shape {1: found, 2: answer} into a
// transport-pool buffer, then recycles held — the buffer v was borrowed
// from, if any: the answer is the last read of v. n is answer's.
func (s *service[V]) encodeReadOut(found bool, v V, held []byte) (out []byte, n int) {
	out = wire.Append(rpc.GetBufferCap(readOutSize), func(e *wire.Encoder) {
		e.Bool(1, found)
		if found {
			n = s.app.answer(e, v)
		}
	})
	rpc.PutBuffer(held)
	return out, n
}

// encodeAck encodes the write ack shape {1: ok}.
func encodeAck(ok bool) []byte {
	return wire.Append(rpc.GetBuffer(), func(e *wire.Encoder) { e.Bool(1, ok) })
}

// fieldBytes scans a wire message for length-delimited field want and
// returns its body, aliasing buf (nil when absent). The front door reads
// its two one-field shapes with it — the GetRequest key, the GetResponse
// answer — the way encodeReadOut writes them: handing wire.Unmarshal a
// message struct moves the struct to the heap.
func fieldBytes(buf []byte, want uint32) (body []byte, err error) {
	err = wire.Decode(buf, func(d *wire.Decoder) error {
		for !d.Done() {
			f, t, err := d.Next()
			if err == nil && f == want && t == wire.TBytes {
				body, err = d.Bytes()
			} else if err == nil {
				err = d.Skip(t)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	return body, err
}

// expired reports whether a client request reached the front door past
// its propagated SLO deadline, counting it on the request's lane when it
// did. The handler then answers without work: the client has already
// given up on the answer, and serving it would bill CPU for nothing. A
// request without a deadline reads no clock.
func expired(sc trace.SpanContext) bool {
	dl := sc.DeadlineUnixNano()
	if dl == 0 || time.Now().UnixNano() <= dl {
		return false
	}
	sc.Lane().CountDeadline()
	return true
}

// handleRead is the client-facing read: decode, expire a request that
// arrived past its deadline, serve through the cache hierarchy, apply the
// application logic, reply with the small derived result. The handler is
// one "app" operation and the one client-visible request of the request's
// lane: whatever the lane is not carried into a downstream component for
// lands on "app". An expired read is a non-error: it answers found=false,
// so overload is a degraded mode, not a failure storm.
func (s *service[V]) handleRead(l *lane[V], sc trace.SpanContext, req []byte) ([]byte, error) {
	sc.Lane().EnterOp(s.appComp)
	sc.Lane().CountRequest()
	act, asc := trace.Start(sc, "app", "read")
	defer act.End()
	kb, err := fieldBytes(req, 1)
	if err != nil {
		return nil, err
	}
	// The key aliases req, which outlives every use below. Whatever keeps
	// it copies it: the linked cache on insert, a consistency tier's fill
	// table, the access observer.
	key := unsafe.String(unsafe.SliceData(kb), len(kb))
	if expired(sc) {
		act.Annotate("deadline", "expired")
		var none V
		out, _ := s.encodeReadOut(false, none, nil)
		return out, nil
	}
	v, held, err := s.read(l, asc, key)
	if err != nil {
		return nil, err
	}
	out, n := s.encodeReadOut(true, v, held)
	act.SetBytes(len(req), n)
	return out, nil
}

// handleWrite is the client-facing write. An expired write is
// acknowledged ok=false and NOT applied: under overload the service
// refuses mutations rather than applying them outside the SLO.
func (s *service[V]) handleWrite(l *lane[V], sc trace.SpanContext, req []byte) ([]byte, error) {
	sc.Lane().EnterOp(s.appComp)
	sc.Lane().CountRequest()
	act, asc := trace.Start(sc, "app", "write")
	defer act.End()
	// SetRequest shape {1: key, 2: value}. Key and value alias req, which
	// outlives every use below; write copies the key for a tier that
	// keeps it.
	kb, err := fieldBytes(req, 1)
	if err != nil {
		return nil, err
	}
	value, err := fieldBytes(req, 2)
	if err != nil {
		return nil, err
	}
	key := unsafe.String(unsafe.SliceData(kb), len(kb))
	if expired(sc) {
		act.Annotate("deadline", "expired")
		return encodeAck(false), nil
	}
	if err := s.write(l, asc, key, value); err != nil {
		return nil, err
	}
	act.SetBytes(len(req), 0)
	return encodeAck(true), nil
}
