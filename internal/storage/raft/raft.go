// Package raft prices the replication layer of the mini distributed
// database: the two costs the paper attributes to it.
//
//   - Every write is shipped to the N_r−1 followers and applied on all
//     N_r replicas: each ship burns a fixed per-message cost plus a
//     per-byte cost for the proposal's commands. A proposal carries the
//     key-value puts one statement made on the leader, which parsed and
//     executed it; a follower applies the puts and runs no SQL.
//   - Every local read validates the leader's lease first, a small
//     per-read burn that §5.5 identifies as part of the storage-side cost
//     of even a "minimal" version check.
//
// The group is a fixed leader (replica 0) and its followers, all
// reachable: no failure the experiments inject reaches the replication
// layer, so elections, terms and a retained log would price nothing.
// A proposal holds its commands only until CommitCtx returns. The group
// burns its modeled work under no lock of its own: a proposal's applies
// are ordered under the group's mutex, its ships are billed after
// (ShipCtx), and a lease check takes no lock at all.
package raft

import (
	"sync"
	"sync/atomic"

	"cachecost/internal/meter"
	"cachecost/internal/trace"
)

// OpPut is the op code of a replicated write.
const OpPut byte = 0

// Command is one replicated state-machine command.
type Command struct {
	Op    byte
	Key   []byte
	Value []byte
}

// StateMachine is the replicated application (a follower's kv.Store in
// this repository). Apply must be deterministic.
type StateMachine interface {
	Apply(cmd Command)
}

// The modeled work, in Burner units.
const (
	// replicationPerMsg is the fixed work per AppendEntries message.
	replicationPerMsg = 2048
	// replicationPerByte is charged per byte shipped to one follower: the
	// puts' keys and values, which the follower appends as they are; it
	// pays transfer and append, not SQL work.
	replicationPerByte = 0.25
	// leaseCheckWork validates the leader lease on a read: small, but
	// per-read, which is the point of §5.5.
	leaseCheckWork = 512
)

// Config parameterizes a Group.
type Config struct {
	// Replicas is the group size N_r. Default 3.
	Replicas int
	// Comp receives the CPU attributed to replication and lease work.
	// Nil disables metering.
	Comp *meter.Component
	// Burner performs the modeled replication-RPC work.
	Burner *meter.Burner
}

// Group is a replica group. All methods are safe for concurrent use.
type Group struct {
	cfg Config

	mu  sync.Mutex     // orders proposals' applies
	sms []StateMachine // replica 0 leads

	// Counters for tests and reports.
	proposals   atomic.Int64
	leaseChecks atomic.Int64
	ships       atomic.Int64
}

// NewGroup creates a group of cfg.Replicas replicas, each applying
// committed commands to the state machine produced by newSM. A nil state
// machine applies nothing: a leader that applied its writes as it made
// them.
func NewGroup(cfg Config, newSM func(id int) StateMachine) *Group {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.Comp != nil && cfg.Burner == nil {
		cfg.Burner = meter.NewBurner()
	}
	g := &Group{cfg: cfg}
	for i := 0; i < cfg.Replicas; i++ {
		g.sms = append(g.sms, newSM(i))
	}
	return g
}

// burn bills replication or lease work to the group's component, as a
// lap of the request's lane when the caller has one.
func (g *Group) burn(l *meter.Lane, work int) {
	l.Burn(g.cfg.Comp, g.cfg.Burner, work)
}

// Propose replicates cmd through the leader and returns its commit index:
// CommitCtx, then ShipCtx. The error is always nil: every replica is
// reachable.
func (g *Group) Propose(cmd Command) (int, error) {
	idx, size := g.CommitCtx(trace.SpanContext{}, cmd)
	g.ShipCtx(trace.SpanContext{}, size)
	return idx, nil
}

// CommitCtx commits cmds as one proposal, carrying the caller's span
// context: every replica's state machine applies every command, in
// proposal order, the leader's first. It returns the commit index and the
// proposal's size in shipped bytes, whose ships the caller then bills with
// ShipCtx — once it holds no lock, for the modeled work is the group's
// only CPU that is not state. The applies meter themselves (kv.Store) or
// ride the caller's lap. The proposal is recorded as a "storage.raft"
// propose span annotated with the replication fan-out (raft.fanout = N_r−1
// AppendEntries ships), each replica apply a child span.
func (g *Group) CommitCtx(sc trace.SpanContext, cmds ...Command) (index, size int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	index = int(g.proposals.Add(1))
	act, psc := trace.Start(sc, "storage.raft", "propose")
	size = 16
	for _, cmd := range cmds {
		size += len(cmd.Key) + len(cmd.Value)
	}
	act.AnnotateInt("raft.fanout", int64(len(g.sms)-1))
	for id, sm := range g.sms {
		applyAct, _ := trace.Start(psc, "storage.raft", "apply")
		applyAct.AnnotateInt("raft.replica", int64(id))
		if sm != nil {
			for _, cmd := range cmds {
				sm.Apply(cmd)
			}
		}
		applyAct.End()
	}
	act.End()
	return index, size
}

// ShipCtx bills the ships of a committed proposal of size bytes: one
// AppendEntries to each follower, a fixed per-message cost plus a per-byte
// cost, each an operation of the group's component and a "storage.raft"
// ship span, and the ships feed the trace's raft-ship counter.
func (g *Group) ShipCtx(sc trace.SpanContext, size int) {
	ships := int64(len(g.sms) - 1)
	for id := 1; id < len(g.sms); id++ {
		shipAct, _ := trace.Start(sc, "storage.raft", "ship")
		shipAct.AnnotateInt("raft.replica", int64(id))
		shipAct.SetBytes(size, 0)
		g.burn(sc.Lane(), replicationPerMsg+int(replicationPerByte*float64(size)))
		shipAct.End()
	}
	sc.Lane().CountRaftShips(ships)
	g.ships.Add(ships)
}

// ValidateLeaseCtx is the check the leader makes before serving a local
// read: the per-read cost the paper's §5.5 identifies, recorded as a
// "storage.raft" lease span. It takes no lock.
func (g *Group) ValidateLeaseCtx(sc trace.SpanContext) {
	g.leaseChecks.Add(1)
	act, _ := trace.Start(sc, "storage.raft", "lease")
	g.burn(sc.Lane(), leaseCheckWork)
	act.End()
}

// GroupStats is a snapshot of group counters.
type GroupStats struct {
	Proposals   int64
	LeaseChecks int64
	Ships       int64 // cumulative AppendEntries messages shipped to followers
}

// Stats returns a snapshot of counters.
func (g *Group) Stats() GroupStats {
	return GroupStats{Proposals: g.proposals.Load(), LeaseChecks: g.leaseChecks.Load(), Ships: g.ships.Load()}
}
