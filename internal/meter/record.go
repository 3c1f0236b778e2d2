package meter

// The rest of a request's record, carried on its Lane beside the laps:
// where its latency went (stages, timed only when a flight recorder armed
// the lane) and the path it took, fault-path events included (counts the
// meter sums over a window, from which the outcome flags are read).

// Stage labels one slice of a request's latency budget. Stages partition
// the intended-clock latency of a client-visible request: where the
// request *waited to start* (queue) and which downstream tier it spent
// the rest in. The flight
// recorder (internal/flight) turns a lane's stage times into the record
// that tail exemplars and the overload figure's tail_stage report.
type Stage uint8

const (
	// StageQueue is time between the request's intended arrival (open-loop
	// schedule slot) and the moment its handler started: lane-queue wait
	// plus dispatcher slip. Computed at completion from the intended
	// timestamp; zero for closed-loop requests.
	StageQueue Stage = iota
	// StageCache is client-observed time in remote-cache calls (the whole
	// round trip: marshal, hop, server occupancy, injected stalls).
	StageCache
	// StageStorage is client-observed time in storage round trips
	// (queries, writes, version checks), inclusive of raft replication.
	StageStorage
	// StageRaft is the replication slice *within* StageStorage (ship +
	// commit wait on the storage node). It is informational and excluded
	// from conservation sums: its time is already inside StageStorage.
	StageRaft
	// StageApp is the handler remainder: wall time inside the front-door
	// dispatch not attributed to cache or storage. Computed at
	// completion.
	StageApp

	// NumStages sizes per-request stage arrays.
	NumStages
)

var stageNames = [NumStages]string{"queue", "cache", "storage", "raft", "app"}

// String returns the stage's wire/JSON name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Outcome flag bits of a request's flight record. A request may carry
// several (a degraded read that still blew its deadline); the flight
// recorder classifies by severity: error > deadline > degraded > ok. A
// lane derives the first two from its path counts (Flags).
const (
	// FlagDeadline marks a request whose SLO deadline expired before or
	// during service.
	FlagDeadline uint32 = 1 << iota
	// FlagDegraded marks a request answered in cache-degraded mode
	// (cache tier demoted or bypassed; answer may be stale or partial).
	FlagDegraded
	// FlagError marks a request whose handler returned an error.
	FlagError
)

// Arm starts stage timing on the lane: the flight recorder arms the lanes
// whose requests it records. An unarmed lane's stage calls read no clock.
func (l *Lane) Arm() {
	if l != nil {
		l.armed = true
	}
}

// StageClock starts timing a stage: it returns the wall clock, or 0 on an
// unarmed lane. Hand the reading to AddStage when the stage ends.
func (l *Lane) StageClock() int64 {
	if l == nil || !l.armed {
		return 0
	}
	return wallNanos()
}

// AddStage adds the wall time since t0, a StageClock reading, to stage s.
func (l *Lane) AddStage(s Stage, t0 int64) {
	if l != nil && l.armed {
		l.stages[s] += max(wallNanos()-t0, 0)
	}
}

// Stages returns the stage times so far in nanoseconds, indexed by Stage.
func (l *Lane) Stages() (out [NumStages]int64) {
	if l != nil {
		out = l.stages
	}
	return out
}

// Flags returns the outcome flag bits the request has earned so far,
// read off its path counts: an expired deadline or a cache demotion
// counted on the lane sets its bit.
func (l *Lane) Flags() (f uint32) {
	if l == nil {
		return 0
	}
	if l.path[pathDeadline] != 0 {
		f |= FlagDeadline
	}
	if l.path[pathDegraded] != 0 {
		f |= FlagDegraded
	}
	return f
}

// PathStats are a window's exact request-path counts, independent of
// span sampling: what the paper's path model (§5.3, §5.5) prices per
// request. Meter.Path sums them over every lane closed on the meter since
// the last Reset.
type PathStats struct {
	// Requests is the number of client-visible requests served.
	Requests int64
	// RPCHops counts network hops (loopback or TCP message round trips);
	// in-process Direct calls are not hops.
	RPCHops int64
	// CacheMsgs counts remote-cache protocol messages (request and
	// response each count one, so one cache RPC is two messages).
	CacheMsgs int64
	// SQLStatements counts statements served by the storage front-end,
	// including §5.5 version checks.
	SQLStatements int64
	// RaftShips counts AppendEntries ships to followers (the write
	// fan-out, N_r-1 per committed proposal with all replicas up).
	RaftShips int64
	// CacheHits/CacheMisses count remote-cache lookups by outcome.
	CacheHits, CacheMisses int64
	// LinkedHits/LinkedMisses count in-process (linked) cache lookups.
	LinkedHits, LinkedMisses int64
	// Faults counts injected fault decisions that stalled or failed a
	// call.
	Faults int64
	// Degraded counts cache failures demoted so the request kept
	// serving: a remote-cache call demoted to a miss or a no-op, or a
	// faulted linked-cache shard skipped.
	Degraded int64
	// Retries counts cache-call retries the retry budget granted.
	Retries int64
	// Deadline counts requests that reached the front door past their
	// SLO deadline and were answered without work.
	Deadline int64
}

// Lane.path and Meter.path index the counts in PathStats field order.
const (
	pathRequests = iota
	pathHops
	pathCacheMsgs
	pathStatements
	pathRaftShips
	pathCacheHits
	pathCacheMisses
	pathLinkedHits
	pathLinkedMisses
	pathFaults
	pathDegraded
	pathRetries
	pathDeadline
	numPathFields
)

func (l *Lane) count(f int, n int64) {
	if l != nil {
		l.path[f] += n
	}
}

// CountRequest counts the client-visible request the lane serves; the
// front door's handlers call it.
func (l *Lane) CountRequest() { l.count(pathRequests, 1) }

// CountHop counts one network hop.
func (l *Lane) CountHop() { l.count(pathHops, 1) }

// CountCacheMsgs counts n remote-cache protocol messages.
func (l *Lane) CountCacheMsgs(n int64) { l.count(pathCacheMsgs, n) }

// CountStatement counts one storage statement (query, write or version
// check).
func (l *Lane) CountStatement() { l.count(pathStatements, 1) }

// CountRaftShips counts n AppendEntries ships to followers.
func (l *Lane) CountRaftShips(n int64) { l.count(pathRaftShips, n) }

// CountCacheHit counts a remote-cache lookup's outcome.
func (l *Lane) CountCacheHit(hit bool) { l.countHit(hit, pathCacheHits) }

// CountLinkedHit counts an in-process cache lookup's outcome.
func (l *Lane) CountLinkedHit(hit bool) { l.countHit(hit, pathLinkedHits) }

// countHit counts a lookup's outcome under hits, or under the misses
// field that follows it.
func (l *Lane) countHit(hit bool, hits int) {
	if !hit {
		hits++
	}
	l.count(hits, 1)
}

// CountFault counts one injected fault (stall, slow start, error or kill
// reject) that altered a call.
func (l *Lane) CountFault() { l.count(pathFaults, 1) }

// CountDegraded counts one cache failure demoted so the request kept
// serving; it marks the request degraded.
func (l *Lane) CountDegraded() { l.count(pathDegraded, 1) }

// CountRetry counts one cache-call retry.
func (l *Lane) CountRetry() { l.count(pathRetries, 1) }

// CountDeadline counts the request's arrival at the front door past its
// SLO deadline; it marks the request's deadline blown.
func (l *Lane) CountDeadline() { l.count(pathDeadline, 1) }

// Path returns the path counts of the lanes closed on m since it was
// created or last Reset.
func (m *Meter) Path() PathStats {
	var n [numPathFields]int64
	for i := range n {
		n[i] = m.path[i].Load()
	}
	return PathStats{
		Requests:      n[pathRequests],
		RPCHops:       n[pathHops],
		CacheMsgs:     n[pathCacheMsgs],
		SQLStatements: n[pathStatements],
		RaftShips:     n[pathRaftShips],
		CacheHits:     n[pathCacheHits],
		CacheMisses:   n[pathCacheMisses],
		LinkedHits:    n[pathLinkedHits],
		LinkedMisses:  n[pathLinkedMisses],
		Faults:        n[pathFaults],
		Degraded:      n[pathDegraded],
		Retries:       n[pathRetries],
		Deadline:      n[pathDeadline],
	}
}
