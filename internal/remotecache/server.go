package remotecache

import (
	"strings"
	"sync/atomic"
	"time"

	"cachecost/internal/cache"
	"cachecost/internal/meter"
	"cachecost/internal/rpc"
	"cachecost/internal/telemetry"
	"cachecost/internal/trace"
	"cachecost/internal/wire"
)

// KeyRecorder observes every key a cache node serves a Get for. The
// shard manager's hot-key detector implements it; the string passed MAY
// alias a transport buffer, so implementations must clone anything they
// retain.
type KeyRecorder interface {
	Record(key string)
}

// Server is one remote cache node: a byte-budgeted sharded LRU behind RPC
// methods cache.Get / cache.Set / cache.Delete and their batched
// counterparts cache.MultiGet / cache.MultiSet / cache.MultiDelete.
type Server struct {
	store  *cache.Sharded[[]byte]
	rpcsrv *rpc.Server
	comp   *meter.Component
	name   string
	hot    KeyRecorder
	slots  chan struct{}
	serve  time.Duration
	ops    atomic.Int64
}

// ServerConfig parameterizes a cache node.
type ServerConfig struct {
	// CapacityBytes is the memory budget. Required.
	CapacityBytes int64
	// Shards is the lock-shard count. Default 16.
	Shards int
	// Meter receives the node's busy time and memory provision under the
	// component name Name. Nil disables metering.
	Meter *meter.Meter
	// Name is the meter component. Default "remotecache".
	Name string
	// RPCCost is the transport overhead model.
	RPCCost rpc.CostModel
	// Tracer joins wire-carried span contexts when the node serves TCP
	// connections. Loopback callers pass their context in-process and do
	// not need it. Nil disables the join.
	Tracer *trace.Tracer
	// Telemetry, when set, registers a pull collector exposing the node's
	// hit/miss/eviction counters and used bytes under Name, and feeds
	// per-dispatch rpc metrics.
	Telemetry *telemetry.Registry
	// Hot, when set, observes every Get-served key — the shard manager's
	// hot-key detector. Nil disables the feed at zero cost.
	Hot KeyRecorder
	// MaxConcurrent, when > 0, caps the node's concurrently served
	// requests with a semaphore: arrivals beyond the cap queue. In the
	// in-process laboratory every node shares the host's cores, so
	// without a cap a "hot" node just borrows more CPU and never
	// saturates; the semaphore models a node's fixed serving capacity,
	// making overload visible as wall-clock queueing (which the
	// intended-arrival clock surfaces) rather than as hidden CPU theft.
	MaxConcurrent int
	// ServeTime, when > 0, holds a serving slot for that wall-clock
	// duration on every request. Together with MaxConcurrent this gives
	// the node a real, fixed serving rate — MaxConcurrent/ServeTime
	// requests per second — so a node whose demand exceeds it queues in
	// wall-clock time. The slot is occupied by sleeping, not by burning
	// host CPU: on a small host N modeled nodes must be able to serve
	// (and saturate) independently, which CPU burning cannot express —
	// the shared host CPU would saturate before any one node did. The
	// duration is attributed to the node's meter component as busy
	// serving time, so the cost model sees it like any other work. Zero
	// (the default) keeps the raw in-memory lookup speed.
	ServeTime time.Duration
}

// NewServer builds a cache node.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	if cfg.Name == "" {
		cfg.Name = "remotecache"
	}
	s := &Server{
		store: cache.NewSharded[[]byte](cfg.CapacityBytes, cfg.Shards, func(k string, v []byte) int64 {
			return int64(len(k) + len(v) + 64) // include per-entry overhead
		}),
		name: cfg.Name,
		hot:  cfg.Hot,
	}
	if cfg.MaxConcurrent > 0 {
		s.slots = make(chan struct{}, cfg.MaxConcurrent)
	}
	s.serve = cfg.ServeTime
	var burner *meter.Burner
	if cfg.Meter != nil {
		s.comp = cfg.Meter.Component(cfg.Name)
		s.comp.SetMemBytes(cfg.CapacityBytes)
		burner = meter.NewBurner()
	}
	s.rpcsrv = rpc.NewServer(s.comp, burner, cfg.RPCCost)
	s.rpcsrv.SetPooledResponses(true) // every reply below is built by reply
	if cfg.Tracer != nil {
		s.rpcsrv.SetTracer(cfg.Tracer, cfg.Name+".rpc")
	}
	if cfg.Telemetry != nil {
		s.rpcsrv.SetMetrics(rpc.NewMetrics(cfg.Telemetry, cfg.Name))
		s.registerTelemetry(cfg.Telemetry)
	}
	s.rpcsrv.HandleCtx("cache.Get", s.handleGet)
	s.rpcsrv.HandleCtx("cache.Set", s.handleSet)
	s.rpcsrv.HandleCtx("cache.Delete", s.handleDelete)
	s.rpcsrv.HandleCtx("cache.MultiGet", s.handleMultiGet)
	s.rpcsrv.HandleCtx("cache.MultiSet", s.handleMultiSet)
	s.rpcsrv.HandleCtx("cache.MultiDelete", s.handleMultiDelete)
	return s
}

// RPCServer exposes the node for rpc.Serve / loopback connections.
func (s *Server) RPCServer() *rpc.Server { return s.rpcsrv }

// Ops returns the number of requests the node has served — the
// per-node demand signal the hot-shard experiment reports as QPS
// spread.
func (s *Server) Ops() int64 { return s.ops.Load() }

// acquire takes a serving slot, blocking when the node is already
// serving MaxConcurrent requests, tallies the request and occupies the
// slot for the configured serving time. The request's lane is parked
// while it queues and sleeps — the serving time is billed as ServeTime,
// not as whatever the sleep measured. Paired with release; both are a
// single nil test when no cap is configured.
func (s *Server) acquire(l *meter.Lane) {
	s.ops.Add(1)
	if s.slots == nil && s.serve <= 0 {
		return
	}
	l.Park()
	if s.slots != nil {
		s.slots <- struct{}{}
	}
	if s.serve > 0 {
		time.Sleep(s.serve)
		if s.comp != nil {
			s.comp.AddBusy(s.serve)
		}
	}
	l.Unpark()
}

func (s *Server) release() {
	if s.slots != nil {
		<-s.slots
	}
}

// Preload bulk-loads one entry directly into the node's store, outside
// the serving path: no serving slot, no serve work, no ops tally and no
// hot-key observation. Experiment harnesses use it to warm a cache tier
// the way an operator does before shifting traffic onto it. Callers on
// an epoch-stamped tier must pass the epoch-stamped key.
func (s *Server) Preload(key string, value []byte) {
	s.store.Put(key, value)
}

// Stats returns the cache counters.
func (s *Server) Stats() cache.Stats { return s.store.Stats() }

// UsedBytes returns the budgeted bytes currently cached.
func (s *Server) UsedBytes() int64 { return s.store.UsedBytes() }

// Capacity returns the node's current byte budget.
func (s *Server) Capacity() int64 { return s.store.Capacity() }

// Resize moves the node's byte budget — shrinking evicts down, growing
// keeps residents — and re-prices its metered memory on the spot, so
// the bill follows the elastic controller's every step.
func (s *Server) Resize(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	s.store.Resize(bytes)
	if s.comp != nil {
		s.comp.SetMemBytes(bytes)
	}
}

// registerTelemetry installs a pull collector publishing the node's
// cache counters and used bytes. The store's own atomics are read only
// at scrape time; the serving hot path is untouched.
func (s *Server) registerTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	lbl := []telemetry.Label{telemetry.L("node", s.name)}
	reg.RegisterCollector("remotecache."+s.name, func(emit func(telemetry.Sample)) {
		st := s.store.Stats()
		emit(telemetry.Sample{Name: "cache.hits", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.Hits)})
		emit(telemetry.Sample{Name: "cache.misses", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.Misses)})
		emit(telemetry.Sample{Name: "cache.evictions", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.Evictions)})
		emit(telemetry.Sample{Name: "cache.used_bytes", Labels: lbl, Kind: telemetry.KindGauge, Value: float64(s.store.UsedBytes())})
		emit(telemetry.Sample{Name: "cache.capacity_bytes", Labels: lbl, Kind: telemetry.KindGauge, Value: float64(s.store.Capacity())})
	})
}

// reply builds a handler's response of about size bytes in a
// transport-pool buffer, which the transport recycles (DESIGN.md, "Buffer
// ownership").
func reply(size int, fn func(*wire.Encoder)) []byte {
	return wire.Append(rpc.GetBufferCap(size), fn)
}

func (s *Server) handleGet(sc trace.SpanContext, req []byte) ([]byte, error) {
	// The key is only a lookup argument, so it aliases the request; the
	// value is encoded straight out of the store into the reply.
	var key string
	err := wire.Decode(req, func(d *wire.Decoder) (err error) {
		return decodeFields(d, func(f uint32, t wire.Type) error {
			if f == 1 {
				key, err = d.StringZC()
				return err
			}
			return d.Skip(t)
		})
	})
	if err != nil {
		return nil, err
	}
	s.acquire(sc.Lane())
	defer s.release()
	act, _ := trace.Start(sc, s.name, "get")
	v, ok := s.store.Get(key)
	if s.hot != nil {
		s.hot.Record(key) // the detector clones what it retains
	}
	act.AnnotateBool("cache.hit", ok)
	resp := reply(len(v)+16, func(e *wire.Encoder) { // GetResponse shape
		e.Bool(1, ok)
		e.BytesField(2, v)
	})
	act.SetBytes(len(req), len(resp))
	act.End()
	return resp, nil
}

func (s *Server) handleSet(sc trace.SpanContext, req []byte) ([]byte, error) {
	// The request is {1: key, 2: value}, read in place: both alias the
	// request until put copies them.
	var key string
	var value []byte
	err := wire.Decode(req, func(d *wire.Decoder) error {
		return decodeFields(d, func(f uint32, t wire.Type) (err error) {
			switch f {
			case 1:
				key, err = d.StringZC()
			case 2:
				value, err = d.Bytes()
			default:
				err = d.Skip(t)
			}
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	s.acquire(sc.Lane())
	defer s.release()
	act, _ := trace.Start(sc, s.name, "set")
	s.put(key, value)
	act.SetBytes(len(req), 0)
	act.End()
	return replyAck(true), nil
}

// put stores copies of key and value, which alias the request: the entry
// is independent of every transport buffer and immutable from here on, so
// concurrent readers may share it. The two copies stay two allocations,
// each sized to its bytes: one buffer holding both would push a value at
// a size-class edge (16 KB) into the next class.
func (s *Server) put(key string, value []byte) {
	s.store.Put(strings.Clone(key), append([]byte(nil), value...))
}

func (s *Server) handleDelete(sc trace.SpanContext, req []byte) ([]byte, error) {
	// The request is {1: key}. The key is only a lookup argument, so it
	// aliases the request, as handleGet's does.
	var key string
	err := wire.Decode(req, func(d *wire.Decoder) (err error) {
		return decodeFields(d, func(f uint32, t wire.Type) error {
			if f == 1 {
				key, err = d.StringZC()
				return err
			}
			return d.Skip(t)
		})
	})
	if err != nil {
		return nil, err
	}
	s.acquire(sc.Lane())
	defer s.release()
	act, _ := trace.Start(sc, s.name, "delete")
	existed := s.store.Delete(key)
	act.AnnotateBool("cache.hit", existed)
	act.End()
	return replyAck(existed), nil
}

// replyAck encodes the Ack shape {1: ok}.
func replyAck(ok bool) []byte {
	return reply(0, func(e *wire.Encoder) { e.Bool(1, ok) })
}
