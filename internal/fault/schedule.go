package fault

import "sort"

// Action is one kind of scheduled fault transition.
type Action int

// Schedule actions.
const (
	// ActKill flips the node's kill switch on.
	ActKill Action = iota
	// ActRevive clears the kill switch (arming slow-start).
	ActRevive
)

// Event is one timed step of a fault schedule: when the driver's op
// counter reaches AtOp, Action is applied to Node.
type Event struct {
	AtOp   int
	Node   string
	Action Action
}

// Schedule replays a fixed list of fault events against an Injector as a
// driver advances its operation counter. Time is the op counter, not the
// wall clock, so the schedule is exactly reproducible. A Schedule is not
// safe for concurrent use; the experiment driver owns it.
type Schedule struct {
	events []Event
	pos    int
	op     int
}

// NewSchedule returns a schedule over events, sorted by AtOp (stable, so
// same-op events apply in the order given).
func NewSchedule(events []Event) *Schedule {
	s := &Schedule{events: append([]Event(nil), events...)}
	sort.SliceStable(s.events, func(i, j int) bool { return s.events[i].AtOp < s.events[j].AtOp })
	return s
}

// Step advances the op counter by one and applies every event that has
// come due to in. It returns the number of events applied.
func (s *Schedule) Step(in *Injector) int {
	applied := 0
	for s.pos < len(s.events) && s.events[s.pos].AtOp <= s.op {
		e := s.events[s.pos]
		s.pos++
		applied++
		switch e.Action {
		case ActKill:
			in.Kill(e.Node)
		case ActRevive:
			in.Revive(e.Node)
		}
	}
	s.op++
	return applied
}
