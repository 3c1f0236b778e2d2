// Package raft implements the replication layer of the mini distributed
// database: leader election, log replication with the Raft log-matching
// rule, and leader leases validated on the read path.
//
// The paper attributes part of the storage-side cost of reads — and in
// particular of the "minimal" version checks needed for consistent caching
// (§5.5) — to the transaction layer validating Raft leases and to
// replication traffic on writes. This package makes those costs real:
// every proposed write is appended, shipped to every follower, and applied
// N_r times; every lease validation and quorum read-index check burns
// metered CPU.
//
// The implementation is deterministic: time is a logical tick counter
// driven by the caller (the database server or a test), not wall-clock
// timers, so experiments are reproducible.
package raft

import (
	"errors"
	"fmt"
	"sync"

	"cachecost/internal/meter"
	"cachecost/internal/trace"
)

// Op codes for replicated commands.
const (
	OpPut byte = iota
	OpDelete
)

// Command is one replicated state-machine command.
type Command struct {
	Op    byte
	Key   []byte
	Value []byte
}

// StateMachine is the replicated application (the kv.Store in this
// repository). Apply must be deterministic.
type StateMachine interface {
	Apply(cmd Command)
}

// ContextApplier is the optional StateMachine extension for appliers that
// meter their work on the proposing request's lane: when implemented,
// ApplyCtx is called instead of Apply, with the proposal's span context.
type ContextApplier interface {
	ApplyCtx(sc trace.SpanContext, cmd Command)
}

// Entry is one log slot.
type Entry struct {
	Term uint64
	Cmd  Command
}

// State is a node's role.
type State int

// Node roles.
const (
	Follower State = iota
	Candidate
	Leader
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return "unknown"
	}
}

// Errors returned by group operations.
var (
	ErrNotLeader    = errors.New("raft: not leader")
	ErrNoQuorum     = errors.New("raft: no quorum")
	ErrLeaseExpired = errors.New("raft: leader lease expired")
)

// node is one replica.
type node struct {
	id          int
	term        uint64
	state       State
	votedFor    int // -1 = none this term
	log         []Entry
	commitIndex int // highest committed log index (1-based; 0 = none)
	lastApplied int
	sm          StateMachine
	down        bool // fault injection
}

func (n *node) lastLogIndex() int { return len(n.log) }

func (n *node) lastLogTerm() uint64 {
	if len(n.log) == 0 {
		return 0
	}
	return n.log[len(n.log)-1].Term
}

// Config parameterizes a Group.
type Config struct {
	// Replicas is the group size N_r. Default 3.
	Replicas int
	// LeaseTicks is how many logical ticks a leader lease lasts after a
	// heartbeat. Default 10.
	LeaseTicks int
	// Comp receives the CPU attributed to replication and lease work.
	// Nil disables metering.
	Comp *meter.Component
	// Burner performs the modeled replication-RPC work.
	Burner *meter.Burner
	// ReplicationPerByte is the CPU work charged per byte shipped to one
	// follower (the entry is already marshalled; followers pay transfer
	// and append, not SQL work). Default 0.25.
	ReplicationPerByte float64
	// ReplicationPerMsg is the fixed work per AppendEntries message.
	// Default 2048.
	ReplicationPerMsg int
	// LeaseCheckWork is the CPU work to validate the leader lease on a
	// read. Default 512 — small, but per-read, which is the point of
	// §5.5.
	LeaseCheckWork int
	// QuorumCheckWork is the work for a full read-index quorum round
	// (used when the lease has expired). Default 8192.
	QuorumCheckWork int
}

func (c *Config) applyDefaults() {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.LeaseTicks <= 0 {
		c.LeaseTicks = 10
	}
	if c.ReplicationPerByte == 0 {
		c.ReplicationPerByte = 0.25
	}
	if c.ReplicationPerMsg == 0 {
		c.ReplicationPerMsg = 2048
	}
	if c.LeaseCheckWork == 0 {
		c.LeaseCheckWork = 512
	}
	if c.QuorumCheckWork == 0 {
		c.QuorumCheckWork = 8192
	}
	if c.Comp != nil && c.Burner == nil {
		c.Burner = meter.NewBurner()
	}
}

// Group is a replica group. All methods are safe for concurrent use.
type Group struct {
	cfg Config

	mu         sync.Mutex
	gate       func(id int) bool // external fault layer; true = unreachable
	nodes      []*node
	leader     int // -1 = none
	tick       uint64
	leaseUntil uint64 // tick before which the current leader's lease holds

	// Counters for tests and reports.
	proposals   int64
	leaseChecks int64
	quorumReads int64
	elections   int64
	ships       int64
}

// NewGroup creates a group of cfg.Replicas nodes, each applying committed
// commands to the state machine produced by newSM. Node 0 starts as leader
// of term 1 with a fresh lease, matching a freshly provisioned cluster.
func NewGroup(cfg Config, newSM func(id int) StateMachine) *Group {
	cfg.applyDefaults()
	g := &Group{cfg: cfg, leader: 0}
	for i := 0; i < cfg.Replicas; i++ {
		st := Follower
		if i == 0 {
			st = Leader
		}
		g.nodes = append(g.nodes, &node{
			id:       i,
			term:     1,
			state:    st,
			votedFor: 0,
			sm:       newSM(i),
		})
	}
	g.leaseUntil = g.tick + uint64(cfg.LeaseTicks)
	return g
}

// SetGate installs an external reachability gate — typically a closure
// over fault.Injector.Down — consulted alongside the node's own down
// flag. A gated node is unreachable for replication, elections, quorum
// counting and (if it is the leader) proposals, exactly like a node
// killed with FailNode, but the switch lives in the fault layer so chaos
// schedules can flip it.
func (g *Group) SetGate(gate func(id int) bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.gate = gate
}

// nodeDown reports whether n is unreachable (its own flag or the gate).
// Callers hold g.mu.
func (g *Group) nodeDown(n *node) bool {
	return n.down || (g.gate != nil && g.gate(n.id))
}

// burn bills replication or lease work to the group's component, as a
// lap of the request's lane when the caller has one.
func (g *Group) burn(l *meter.Lane, work int) {
	l.Burn(g.cfg.Comp, g.cfg.Burner, work)
}

// Tick advances logical time by one. Heartbeats are NOT implicit: the
// leader must call Heartbeat to renew its lease, as a real leader's
// background loop would.
func (g *Group) Tick() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.tick++
}

// Heartbeat renews the leader lease if a quorum of nodes is reachable.
func (g *Group) Heartbeat() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.leader < 0 {
		return ErrNotLeader
	}
	up := 0
	for _, n := range g.nodes {
		if !g.nodeDown(n) {
			up++
		}
	}
	if up <= len(g.nodes)/2 {
		return ErrNoQuorum
	}
	g.leaseUntil = g.tick + uint64(g.cfg.LeaseTicks)
	return nil
}

// Leader returns the current leader id, or -1.
func (g *Group) Leader() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.leader
}

// Term returns the current leader's term (0 if no leader).
func (g *Group) Term() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.leader < 0 {
		return 0
	}
	return g.nodes[g.leader].term
}

// Propose replicates cmd through the leader. It returns the committed log
// index. The cost charged is proportional to command size times the number
// of reachable followers, plus the leader's own append and the apply on
// every live replica.
func (g *Group) Propose(cmd Command) (int, error) {
	return g.ProposeCtx(trace.SpanContext{}, cmd)
}

// ProposeCtx is Propose carrying the caller's span context: the proposal
// is recorded as a "storage.raft" propose span annotated with the
// replication fan-out (raft.fanout = AppendEntries ships, N_r−1 with all
// followers reachable), each ship and each replica apply as child spans,
// and the ships feed the trace's raft-ship counter.
func (g *Group) ProposeCtx(sc trace.SpanContext, cmd Command) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.leader < 0 {
		return 0, ErrNotLeader
	}
	ld := g.nodes[g.leader]
	if g.nodeDown(ld) {
		return 0, ErrNotLeader
	}
	g.proposals++
	act, psc := trace.Start(sc, "storage.raft", "propose")
	entry := Entry{Term: ld.term, Cmd: cmd}
	ld.log = append(ld.log, entry)
	newIndex := ld.lastLogIndex()

	// Ship to followers (AppendEntries with log-matching check).
	size := len(cmd.Key) + len(cmd.Value) + 16
	acks := 1 // leader
	ships := int64(0)
	for _, f := range g.nodes {
		if f.id == ld.id || g.nodeDown(f) {
			continue
		}
		ships++
		shipAct, _ := trace.Start(psc, "storage.raft", "ship")
		shipAct.AnnotateInt("raft.replica", int64(f.id))
		shipAct.SetBytes(size, 0)
		g.burn(sc.Lane(), g.cfg.ReplicationPerMsg+int(g.cfg.ReplicationPerByte*float64(size)))
		if g.appendEntries(ld, f) {
			acks++
		}
		shipAct.End()
	}
	sc.Lane().CountRaftShips(ships)
	g.ships += ships
	act.AnnotateInt("raft.fanout", ships)
	if acks <= len(g.nodes)/2 {
		// Not committed; the entry stays in the leader log awaiting
		// quorum (it may commit later after recovery), but the proposal
		// fails now.
		act.Annotate("raft.outcome", "no-quorum")
		act.End()
		return 0, ErrNoQuorum
	}
	ld.commitIndex = newIndex
	g.applyCommitted(psc, ld)
	// Followers learn the commit index with the next message; model the
	// common case of piggybacked commit by applying now on the nodes that
	// acked.
	for _, f := range g.nodes {
		if f.id == ld.id || g.nodeDown(f) {
			continue
		}
		if f.lastLogIndex() >= newIndex && f.log[newIndex-1].Term == entry.Term {
			f.commitIndex = newIndex
			g.applyCommitted(psc, f)
		}
	}
	act.End()
	return newIndex, nil
}

// appendEntries brings follower f up to date with leader ld, respecting
// the log-matching property. Returns true if f acknowledged the append.
func (g *Group) appendEntries(ld, f *node) bool {
	if f.term > ld.term {
		return false // stale leader; a real impl would step down here
	}
	f.term = ld.term
	f.state = Follower
	// Find the longest prefix of ld.log that f agrees with.
	match := f.lastLogIndex()
	if match > ld.lastLogIndex() {
		match = ld.lastLogIndex()
	}
	for match > 0 && f.log[match-1].Term != ld.log[match-1].Term {
		match--
	}
	// Truncate conflicts and append the rest.
	f.log = append(f.log[:match], ld.log[match:]...)
	return true
}

// applyCommitted applies newly committed entries to n's state machine,
// charging apply CPU. Each replica's apply is recorded as a child span of
// the proposal when the request is sampled.
func (g *Group) applyCommitted(sc trace.SpanContext, n *node) {
	if n.lastApplied >= n.commitIndex {
		return
	}
	act, _ := trace.Start(sc, "storage.raft", "apply")
	act.AnnotateInt("raft.replica", int64(n.id))
	for n.lastApplied < n.commitIndex {
		e := n.log[n.lastApplied]
		n.lastApplied++
		// The state machine itself (kv.Store) meters its own work; no
		// extra burn here.
		if ca, ok := n.sm.(ContextApplier); ok {
			ca.ApplyCtx(sc, e.Cmd)
		} else if n.sm != nil {
			n.sm.Apply(e.Cmd)
		}
	}
	act.End()
}

// ValidateLease checks that the leader may serve a local read: its lease
// must cover the current tick. This is the per-read cost the paper's §5.5
// identifies. If the lease has expired, a quorum read-index round is
// performed (more expensive) and, if a quorum is reachable, the read may
// proceed.
func (g *Group) ValidateLease() error {
	return g.ValidateLeaseCtx(trace.SpanContext{})
}

// ValidateLeaseCtx is ValidateLease carrying the caller's span context:
// the check is recorded as a "storage.raft" lease span, annotated when it
// escalates to a quorum read-index round.
func (g *Group) ValidateLeaseCtx(sc trace.SpanContext) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.leader < 0 || g.nodeDown(g.nodes[g.leader]) {
		return ErrNotLeader
	}
	g.leaseChecks++
	act, _ := trace.Start(sc, "storage.raft", "lease")
	defer act.End()
	g.burn(sc.Lane(), g.cfg.LeaseCheckWork)
	if g.tick < g.leaseUntil {
		return nil
	}
	// Lease expired: fall back to a quorum read-index check.
	g.quorumReads++
	act.Annotate("raft.quorum-read", "true")
	g.burn(sc.Lane(), g.cfg.QuorumCheckWork)
	up := 0
	for _, n := range g.nodes {
		if !g.nodeDown(n) {
			up++
		}
	}
	if up <= len(g.nodes)/2 {
		return ErrNoQuorum
	}
	g.leaseUntil = g.tick + uint64(g.cfg.LeaseTicks)
	return nil
}

// FailNode marks a node unreachable (fault injection). Failing the leader
// leaves the group leaderless until ElectLeader succeeds.
func (g *Group) FailNode(id int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nodes[id].down = true
	if g.leader == id {
		g.leader = -1
		g.leaseUntil = 0
	}
}

// RecoverNode brings a failed node back as a follower. Its log is repaired
// by the next Propose or ElectLeader.
func (g *Group) RecoverNode(id int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nodes[id].down = false
	g.nodes[id].state = Follower
}

// ElectLeader runs an election with candidate id. The candidate bumps its
// term and must gather votes from a majority of live nodes; Raft's
// up-to-date rule applies (voters reject candidates with stale logs).
func (g *Group) ElectLeader(candidateID int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	cand := g.nodes[candidateID]
	if g.nodeDown(cand) {
		return fmt.Errorf("raft: candidate %d is down", candidateID)
	}
	g.elections++
	// A real candidate that loses on term would retry at a higher term
	// until it converges; model the converged retry by starting above
	// every term it can observe.
	maxTerm := cand.term
	for _, v := range g.nodes {
		if !g.nodeDown(v) && v.term > maxTerm {
			maxTerm = v.term
		}
	}
	cand.term = maxTerm + 1
	cand.state = Candidate
	cand.votedFor = candidateID
	votes := 1
	for _, v := range g.nodes {
		if v.id == candidateID || g.nodeDown(v) {
			continue
		}
		g.burn(nil, g.cfg.ReplicationPerMsg) // RequestVote RPC
		if v.term > cand.term {
			continue
		}
		upToDate := cand.lastLogTerm() > v.lastLogTerm() ||
			(cand.lastLogTerm() == v.lastLogTerm() && cand.lastLogIndex() >= v.lastLogIndex())
		alreadyVoted := v.term == cand.term && v.votedFor >= 0 && v.votedFor != candidateID
		if upToDate && !alreadyVoted {
			v.term = cand.term
			v.votedFor = candidateID
			v.state = Follower
			votes++
		}
	}
	if votes <= len(g.nodes)/2 {
		cand.state = Follower
		return ErrNoQuorum
	}
	cand.state = Leader
	g.leader = candidateID
	g.leaseUntil = g.tick + uint64(g.cfg.LeaseTicks)
	// Repair follower logs immediately (a real leader does this lazily).
	for _, f := range g.nodes {
		if f.id == candidateID || g.nodeDown(f) {
			continue
		}
		g.appendEntries(cand, f)
		if f.commitIndex > cand.commitIndex {
			// Cannot happen given commit rules, but guard anyway.
			f.commitIndex = cand.commitIndex
		}
	}
	return nil
}

// GroupStats is a snapshot of group counters.
type GroupStats struct {
	Proposals   int64
	LeaseChecks int64
	QuorumReads int64
	Elections   int64
	Ships       int64 // cumulative AppendEntries messages shipped to followers
	Leader      int
	Term        uint64
}

// Stats returns a snapshot of counters.
func (g *Group) Stats() GroupStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	term := uint64(0)
	if g.leader >= 0 {
		term = g.nodes[g.leader].term
	}
	return GroupStats{
		Proposals:   g.proposals,
		LeaseChecks: g.leaseChecks,
		QuorumReads: g.quorumReads,
		Elections:   g.elections,
		Ships:       g.ships,
		Leader:      g.leader,
		Term:        term,
	}
}

// ShipLag reports how far the worst reachable follower's applied state
// trails the leader's log — the replication lag a monitoring plane
// watches. Zero when fully caught up, when there is no leader, or when
// no follower is reachable (an unreachable follower is the gate's
// problem, not replication lag).
func (g *Group) ShipLag() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.leader < 0 {
		return 0
	}
	ld := g.nodes[g.leader]
	lag := 0
	for _, f := range g.nodes {
		if f.id == ld.id || g.nodeDown(f) {
			continue
		}
		if d := ld.lastLogIndex() - f.lastApplied; d > lag {
			lag = d
		}
	}
	return lag
}

// LogLen returns the log length of node id (tests).
func (g *Group) LogLen(id int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.nodes[id].lastLogIndex()
}

// CommitIndex returns the commit index of node id (tests).
func (g *Group) CommitIndex(id int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.nodes[id].commitIndex
}

// NodeState returns the role of node id.
func (g *Group) NodeState(id int) State {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.nodes[id].state
}
