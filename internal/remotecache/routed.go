package remotecache

import (
	"fmt"
	"sync/atomic"

	"cachecost/internal/cluster"
	"cachecost/internal/rpc"
	"cachecost/internal/telemetry"
	"cachecost/internal/trace"
)

// Routed mode: the client resolves keys through a shared
// cluster.ShardMap — the dynamic placement the shard manager reshapes at
// runtime. Reads spread over a hot shard's replica set with
// power-of-two-choices on the client's own inflight counts; writes fan out to every replica (and invalidate the
// old primary during a handoff) so replicas never serve stale data;
// reads that miss during a handoff double-read the old primary at its
// old epoch and copy the value forward, warming the new primary without
// a stop-the-world transfer. Every cache key is stamped with the
// shard's epoch (cluster.EpochKey), so any entry written under a
// superseded placement is unreachable by construction — acting on a
// stale Placement snapshot is harmless, which is what lets the read
// path stay lock-free.

// inflightCell is one node's padded in-flight request count — the
// client-side queue-depth signal power-of-two-choices balances on.
type inflightCell struct {
	v atomic.Int64
	_ [56]byte
}

type router struct {
	smap     *cluster.ShardMap
	nodeIdx  map[string]int
	inflight []inflightCell
	rrseq    atomic.Uint64

	// Routing telemetry; nil (no-op) until SetTelemetry.
	tmFanout  *telemetry.Counter
	tmHandoff *telemetry.Counter
}

// NewRoutedClient builds a client that routes through smap, over conns
// keyed by node name. Every node in the map must have a connection, and
// every connection a node: the map's node population is fixed, so this
// check is the only one routing needs.
func NewRoutedClient(conns map[string]rpc.Conn, smap *cluster.ShardMap) (*Client, error) {
	if smap == nil {
		return nil, fmt.Errorf("remotecache: routed client needs a shard map")
	}
	nodes := smap.Nodes()
	if len(conns) != len(nodes) {
		return nil, fmt.Errorf("remotecache: %d connections for %d shard-map nodes", len(conns), len(nodes))
	}
	r := &router{
		smap:     smap,
		nodeIdx:  make(map[string]int, len(nodes)),
		inflight: make([]inflightCell, len(nodes)),
	}
	c := &Client{conns: make([]rpc.Conn, len(nodes)), router: r}
	for i, n := range nodes {
		conn, ok := conns[n]
		if !ok {
			return nil, fmt.Errorf("remotecache: no connection for shard-map node %q", n)
		}
		c.conns[i] = conn
		r.nodeIdx[n] = i
	}
	return c, nil
}

// pickReplica chooses the replica to read from: the sole replica when
// the shard is unreplicated, otherwise two distinct candidates from a
// mixed sequence number and the one with fewer in-flight requests —
// power-of-two-choices over the client's own queue-depth estimate,
// which tracks true node load closely without any coordination.
func (r *router) pickReplica(pl cluster.ShardPlacement) string {
	n := len(pl.Replicas)
	if n == 1 {
		return pl.Replicas[0]
	}
	h := r.rrseq.Add(1)
	// splitmix64 finalizer: consecutive sequence numbers must not pick
	// correlated pairs.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	i := int(h % uint64(n))
	j := int((h >> 32) % uint64(n))
	if i == j {
		j = (j + 1) % n
	}
	a, b := pl.Replicas[i], pl.Replicas[j]
	if r.inflight[r.nodeIdx[a]].v.Load() <= r.inflight[r.nodeIdx[b]].v.Load() {
		return a
	}
	return b
}

// routedGet is the replica-aware read path. The epoch-stamped key is
// looked up on the chosen replica; during a handoff a miss falls
// through to the old primary at its old epoch, and a hit there is
// copied forward to the new primary so repeated reads converge onto the
// new placement while the handoff window is open.
func (c *Client) routedGet(sc trace.SpanContext, key string) (value, held []byte, found bool, err error) {
	r := c.router
	shard := r.smap.ShardOf(key)
	r.smap.Note(shard)
	pl := r.smap.Placement(shard)
	node := r.pickReplica(pl)
	value, held, found, err = c.getNode(sc, node, cluster.EpochKey(pl.Epoch, key))
	if err != nil || found || !pl.Migrating() {
		return value, held, found, err
	}
	// Double-read window: the new primary is still cold for this key.
	r.tmHandoff.Inc()
	value, held, found, err = c.getNode(sc, pl.Old, cluster.EpochKey(pl.OldEpoch, key))
	if err != nil || !found {
		return nil, nil, false, err
	}
	// Copy forward so the next read hits the new primary directly. A
	// copy-forward failure propagates, and the caller's demotion turns it
	// into a miss (the value is re-fetched from storage — wasteful, never
	// wrong).
	if err := c.setNode(sc, pl.Replicas[0], cluster.EpochKey(pl.Epoch, key), value); err != nil {
		rpc.PutBuffer(held)
		return nil, nil, false, err
	}
	return value, held, true, nil
}

// routedSet fans the write out to every replica at the current epoch,
// then invalidates the old primary's entry during a handoff. A write is
// acknowledged only once every replica holds it — a subsequent read
// from ANY replica sees it, so replica fan-out never serves stale data.
func (c *Client) routedSet(sc trace.SpanContext, key string, value []byte) error {
	r := c.router
	shard := r.smap.ShardOf(key)
	r.smap.Note(shard)
	pl := r.smap.Placement(shard)
	ek := cluster.EpochKey(pl.Epoch, key)
	for i, node := range pl.Replicas {
		if err := c.setNode(sc, node, ek, value); err != nil {
			return err
		}
		if i > 0 {
			r.tmFanout.Inc()
		}
	}
	if pl.Migrating() {
		if _, err := c.deleteNode(sc, pl.Old, cluster.EpochKey(pl.OldEpoch, key)); err != nil {
			return err
		}
	}
	return nil
}

// routedDelete invalidates the key on every replica and, during a
// handoff, on the old primary.
func (c *Client) routedDelete(sc trace.SpanContext, key string) (bool, error) {
	r := c.router
	shard := r.smap.ShardOf(key)
	r.smap.Note(shard)
	pl := r.smap.Placement(shard)
	ek := cluster.EpochKey(pl.Epoch, key)
	existed := false
	for _, node := range pl.Replicas {
		ok, err := c.deleteNode(sc, node, ek)
		if err != nil {
			return false, err
		}
		existed = existed || ok
	}
	if pl.Migrating() {
		ok, err := c.deleteNode(sc, pl.Old, cluster.EpochKey(pl.OldEpoch, key))
		if err != nil {
			return false, err
		}
		existed = existed || ok
	}
	return existed, nil
}

// getNode / setNode / deleteNode are the single-node RPC legs of the
// routed ops: one round trip each, inside the inflight tracking
// power-of-two-choices feeds on.

// track counts one more request in flight on node and returns its
// connection; the caller takes it off the returned counter when the
// round trip ends.
func (c *Client) track(node string) (rpc.Conn, *atomic.Int64) {
	i := c.router.nodeIdx[node]
	infl := &c.router.inflight[i].v
	infl.Add(1)
	return c.conns[i], infl
}

func (c *Client) getNode(sc trace.SpanContext, node, key string) (value, held []byte, found bool, err error) {
	conn, infl := c.track(node)
	defer infl.Add(-1)
	return getOn(sc, conn, key)
}

func (c *Client) setNode(sc trace.SpanContext, node, key string, value []byte) error {
	conn, infl := c.track(node)
	defer infl.Add(-1)
	return setOn(sc, conn, key, value)
}

func (c *Client) deleteNode(sc trace.SpanContext, node, key string) (bool, error) {
	conn, infl := c.track(node)
	defer infl.Add(-1)
	return deleteOn(sc, conn, key)
}
