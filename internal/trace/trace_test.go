package trace

import (
	"sync"
	"testing"
	"time"
)

// fixedClock returns a deterministic clock advancing 1ms per call.
func fixedClock() func() time.Time {
	t0 := time.Unix(0, 0)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Millisecond)
	}
}

func TestStartRequestRecordsTree(t *testing.T) {
	tr := New(Config{Now: fixedClock()})
	sc, root := tr.StartRequest("read")
	if !sc.Sampled() {
		t.Fatal("sampled request context is not sampled")
	}
	child, csc := Start(sc, "app", "read")
	grand, _ := Start(csc, "storage.sql", "parse")
	grand.Annotate("sql.op", "select")
	grand.SetBytes(10, 20)
	grand.End()
	child.End()
	root.End()

	got := tr.Last()
	if got == nil {
		t.Fatal("no completed trace")
	}
	if got.Root != "read" {
		t.Errorf("root op %q, want read", got.Root)
	}
	if len(got.Spans) != 3 {
		t.Fatalf("%d spans, want 3", len(got.Spans))
	}
	if got.Spans[0].Parent != 0 {
		t.Errorf("root parent %d, want 0", got.Spans[0].Parent)
	}
	if got.Spans[1].Parent != got.Spans[0].ID {
		t.Errorf("child parent %d, want %d", got.Spans[1].Parent, got.Spans[0].ID)
	}
	if got.Spans[2].Parent != got.Spans[1].ID {
		t.Errorf("grandchild parent %d, want %d", got.Spans[2].Parent, got.Spans[1].ID)
	}
	sp := got.Spans[2]
	if v, ok := sp.Annotation("sql.op"); !ok || v != "select" {
		t.Errorf("annotation sql.op = %q, %v", v, ok)
	}
	if sp.BytesIn != 10 || sp.BytesOut != 20 {
		t.Errorf("bytes %d/%d, want 10/20", sp.BytesIn, sp.BytesOut)
	}
	for i, sp := range got.Spans {
		if sp.Duration <= 0 {
			t.Errorf("span %d duration %v, want > 0", i, sp.Duration)
		}
	}
}

func TestSamplingOneInN(t *testing.T) {
	tr := New(Config{SampleEvery: 4, Capacity: 64})
	sampled := 0
	for i := 0; i < 12; i++ {
		sc, act := tr.StartRequest("read")
		if sc.Sampled() {
			sampled++
		}
		act.End()
	}
	if sampled != 3 {
		t.Errorf("sampled %d of 12 at 1-in-4, want 3", sampled)
	}
	if got := len(tr.Traces()); got != 3 {
		t.Errorf("%d completed traces, want 3", got)
	}
}

func TestRingCapacity(t *testing.T) {
	tr := New(Config{Capacity: 3})
	for i := 0; i < 8; i++ {
		_, act := tr.StartRequest("read")
		act.End()
	}
	traces := tr.Traces()
	if len(traces) != 3 {
		t.Fatalf("ring holds %d traces, want 3", len(traces))
	}
	// Oldest first, and only the newest three survive.
	if traces[0].ID != 6 || traces[2].ID != 8 {
		t.Errorf("ring IDs %d..%d, want 6..8", traces[0].ID, traces[2].ID)
	}
	tr.ResetTraces()
	if len(tr.Traces()) != 0 {
		t.Error("ResetTraces left traces behind")
	}
}

func TestDoubleEndIsSafe(t *testing.T) {
	tr := New(Config{})
	sc, root := tr.StartRequest("read")
	child, _ := Start(sc, "app", "read")
	child.End()
	child.End() // must not double-close the trace
	if got := tr.Last(); got != nil {
		t.Fatalf("trace finalized with root still open: %+v", got)
	}
	root.End()
	if tr.Last() == nil {
		t.Fatal("trace did not finalize after root ended")
	}
}

func TestJoinStitchesFragmentByID(t *testing.T) {
	// Two tracers model two processes: the client samples a trace, the
	// server joins it from wire-decoded identities. Both fragments carry
	// the same trace ID.
	client := New(Config{})
	server := New(Config{})

	sc, root := client.StartRequest("read")
	hop, down := Start(sc, "rpc", "sql.Query")

	ssc := server.Join(down.TraceID(), down.SpanID(), down.Sampled())
	if !ssc.Sampled() {
		t.Fatal("joined context not sampled")
	}
	h, _ := Start(ssc, "storage.rpc", "sql.Query")
	h.End()

	hop.End()
	root.End()

	frag := server.Last()
	if frag == nil {
		t.Fatal("server recorded no fragment")
	}
	full := client.Last()
	if full == nil {
		t.Fatal("client recorded no trace")
	}
	if frag.ID != full.ID {
		t.Errorf("fragment trace ID %d != client trace ID %d", frag.ID, full.ID)
	}
	if frag.Spans[0].Parent == 0 {
		t.Error("server span lost its remote parent")
	}

	// Unsampled and zero-ID joins record nothing.
	if server.Join(0, 0, true).Sampled() {
		t.Error("zero trace ID must not sample")
	}
	if server.Join(7, 1, false).Sampled() {
		t.Error("unsampled flag must not sample")
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	sc, act := tr.StartRequest("read")
	if sc.Sampled() || act.Recording() {
		t.Fatal("nil tracer produced a live context")
	}
	// Every path must be a no-op, not a panic.
	tr.ResetTraces()
	if tr.Traces() != nil || tr.Last() != nil {
		t.Fatal("nil tracer returned non-zero observations")
	}
	child, csc := Start(sc, "app", "read")
	child.Annotate("k", "v")
	child.AnnotateInt("n", 1)
	child.AnnotateBool("b", true)
	child.SetBytes(1, 2)
	child.End()
	if csc.Sampled() {
		t.Fatal("child of inert context sampled")
	}
}

func TestConcurrentRequestsDoNotInterleave(t *testing.T) {
	tr := New(Config{Capacity: 64})
	const workers, each = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sc, root := tr.StartRequest("read")
				a, asc := Start(sc, "app", "read")
				b, _ := Start(asc, "storage.sql", "parse")
				b.End()
				a.End()
				root.End()
			}
		}()
	}
	wg.Wait()
	traces := tr.Traces()
	if len(traces) != 64 {
		t.Fatalf("ring holds %d traces, want 64", len(traces))
	}
	for _, got := range traces {
		if len(got.Spans) != 3 {
			t.Fatalf("trace %d has %d spans, want 3 (interleaved?)", got.ID, len(got.Spans))
		}
		ids := map[SpanID]bool{}
		for _, sp := range got.Spans {
			ids[sp.ID] = true
		}
		for _, sp := range got.Spans[1:] {
			if !ids[sp.Parent] {
				t.Fatalf("trace %d: span %d parented outside the trace", got.ID, sp.ID)
			}
		}
	}
}
