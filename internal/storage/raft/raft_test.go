package raft

import (
	"fmt"
	"sync"
	"testing"

	"cachecost/internal/meter"
	"cachecost/internal/trace"
)

// mapSM is a trivial state machine recording applied commands.
type mapSM struct {
	mu   sync.Mutex
	data map[string]string
	n    int
}

func newMapSM() *mapSM { return &mapSM{data: make(map[string]string)} }

func (m *mapSM) Apply(cmd Command) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.n++
	m.data[string(cmd.Key)] = string(cmd.Value)
}

func (m *mapSM) get(k string) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.data[k]
	return v, ok
}

func newTestGroup(n int) (*Group, []*mapSM) {
	sms := make([]*mapSM, n)
	g := NewGroup(Config{Replicas: n}, func(id int) StateMachine {
		sms[id] = newMapSM()
		return sms[id]
	})
	return g, sms
}

func TestProposeReplicatesToAll(t *testing.T) {
	g, sms := newTestGroup(3)
	idx, err := g.Propose(Command{Op: OpPut, Key: []byte("k"), Value: []byte("v")})
	if err != nil || idx != 1 {
		t.Fatalf("Propose = %d, %v", idx, err)
	}
	for i, sm := range sms {
		if v, ok := sm.get("k"); !ok || v != "v" {
			t.Fatalf("replica %d missing the committed write", i)
		}
	}
}

func TestProposeSequence(t *testing.T) {
	g, sms := newTestGroup(3)
	for i := 0; i < 50; i++ {
		if _, err := g.Propose(Command{Op: OpPut, Key: []byte(fmt.Sprintf("k%d", i)), Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	idx, _ := g.Propose(Command{Op: OpPut, Key: []byte("k0"), Value: []byte("w")})
	for i, sm := range sms {
		if v, _ := sm.get("k0"); v != "w" {
			t.Fatalf("replica %d holds k0 = %q, want the last write", i, v)
		}
		if sm.n != 51 {
			t.Fatalf("replica %d applied %d commands, want 51", i, sm.n)
		}
	}
	if idx != 51 {
		t.Fatalf("commit index = %d, want 51", idx)
	}
}

// TestLeaseValidation: each check burns the lease work once and counts
// once; nothing else moves.
func TestLeaseValidation(t *testing.T) {
	m := meter.NewMeter()
	g := NewGroup(Config{Replicas: 3, Comp: m.Component("raft")}, func(int) StateMachine { return newMapSM() })
	for i := 0; i < 4; i++ {
		g.ValidateLeaseCtx(trace.SpanContext{})
	}
	if st := g.Stats(); st.LeaseChecks != 4 || st.Proposals != 0 || st.Ships != 0 {
		t.Fatalf("stats = %+v, want 4 lease checks and nothing else", st)
	}
	if m.Component("raft").Busy() <= 0 {
		t.Fatal("lease checks burned nothing")
	}
}

func TestReplicationCostScalesWithReplicas(t *testing.T) {
	if raceEnabled {
		t.Skip("measured cost ratios are distorted by race-detector instrumentation")
	}
	busyFor := func(replicas int) int64 {
		t.Helper()
		m := meter.NewMeter()
		g := NewGroup(Config{
			Replicas: replicas,
			Comp:     m.Component("raft"),
			Burner:   meter.NewBurner(),
		}, func(int) StateMachine { return newMapSM() })
		val := make([]byte, 4096)
		for i := 0; i < 50; i++ {
			g.Propose(Command{Op: OpPut, Key: []byte("k"), Value: val})
		}
		if got, want := g.Stats().Ships, int64(50*(replicas-1)); got != want {
			t.Fatalf("N_r=%d: %d ships, want %d", replicas, got, want)
		}
		return int64(m.Component("raft").Busy())
	}
	three := busyFor(3)
	seven := busyFor(7)
	if seven < three*2 {
		t.Fatalf("replication cost should grow with N_r: 3=%d 7=%d", three, seven)
	}
}

func TestConcurrentProposals(t *testing.T) {
	g, sms := newTestGroup(3)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				g.Propose(Command{Op: OpPut, Key: []byte(fmt.Sprintf("w%d-k%d", w, i)), Value: []byte("v")})
			}
		}(w)
	}
	wg.Wait() // run with -race
	if sms[0].n != 400 || sms[1].n != 400 || sms[2].n != 400 {
		t.Fatalf("applied counts = %d/%d/%d, want 400 each", sms[0].n, sms[1].n, sms[2].n)
	}
}
