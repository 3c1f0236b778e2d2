package assert

import (
	"fmt"
	"strings"
	"testing"

	"cachecost/internal/meter"
	"cachecost/internal/trace"
)

// recorder captures harness failures instead of failing the real test.
type recorder struct {
	failures []string
}

func (r *recorder) Helper() {}
func (r *recorder) Errorf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// sample builds one well-formed trace: request -> app -> (cache, rpc).
func sample(t *testing.T) *trace.Trace {
	t.Helper()
	tr := trace.New(trace.Config{})
	sc, root := tr.StartRequest("read")
	app, asc := trace.Start(sc, "app", "read")
	cache, _ := trace.Start(asc, "app.cache", "get")
	cache.AnnotateBool("cache.hit", true)
	cache.End()
	hop, _ := trace.Start(asc, "rpc", "sql.Query")
	hop.Annotate("rpc.hop", "loopback")
	hop.End()
	app.End()
	root.End()
	got := tr.Last()
	if got == nil {
		t.Fatal("no trace recorded")
	}
	return got
}

func TestSpansFilters(t *testing.T) {
	tr := sample(t)
	if n := len(Spans(tr, "app.cache", "get")); n != 1 {
		t.Errorf("exact match found %d spans, want 1", n)
	}
	if n := len(Spans(tr, "", "")); n != 4 {
		t.Errorf("wildcard found %d spans, want 4", n)
	}
	if n := len(Spans(tr, "rpc", "")); n != 1 {
		t.Errorf("component wildcard-op found %d, want 1", n)
	}
	if Spans(nil, "", "") != nil {
		t.Error("nil trace should yield nil")
	}
}

func TestSpanCountAndNoSpans(t *testing.T) {
	tr := sample(t)
	var r recorder
	SpanCount(&r, tr, "rpc", "sql.Query", 1)
	NoSpans(&r, tr, "storage.raft", "propose")
	if len(r.failures) != 0 {
		t.Fatalf("clean trace failed assertions: %v", r.failures)
	}
	SpanCount(&r, tr, "rpc", "sql.Query", 3)
	NoSpans(&r, tr, "rpc", "")
	if len(r.failures) != 2 {
		t.Fatalf("%d failures, want 2", len(r.failures))
	}
}

func TestAnnotated(t *testing.T) {
	tr := sample(t)
	var r recorder
	Annotated(&r, tr, "app.cache", "get", "cache.hit", "true")
	if len(r.failures) != 0 {
		t.Fatalf("present annotation failed: %v", r.failures)
	}
	Annotated(&r, tr, "app.cache", "get", "cache.hit", "false")
	Annotated(&r, tr, "rpc", "", "cache.hit", "true")
	if len(r.failures) != 2 {
		t.Fatalf("%d failures, want 2", len(r.failures))
	}
}

func TestParented(t *testing.T) {
	tr := sample(t)
	var r recorder
	Parented(&r, tr)
	if len(r.failures) != 0 {
		t.Fatalf("connected tree failed Parented: %v", r.failures)
	}

	// A span whose parent is missing — the shape of interleaved workers.
	broken := &trace.Trace{ID: 9, Spans: append([]trace.Span(nil), tr.Spans...)}
	broken.Spans = append(broken.Spans, trace.Span{ID: 999, Parent: 888, Component: "app", Op: "read"})
	Parented(&r, broken)
	if len(r.failures) == 0 {
		t.Fatal("orphan span not detected")
	}

	// Two roots — also an interleave signature.
	r.failures = nil
	twoRoots := &trace.Trace{ID: 10, Spans: []trace.Span{
		{ID: 1, Component: "request", Op: "read"},
		{ID: 2, Component: "request", Op: "read"},
	}}
	Parented(&r, twoRoots)
	if len(r.failures) == 0 {
		t.Fatal("double root not detected")
	}

	r.failures = nil
	Parented(&r, nil)
	if len(r.failures) == 0 {
		t.Fatal("nil trace not detected")
	}
}

func TestPathPerOp(t *testing.T) {
	var r recorder
	stats := meter.PathStats{Requests: 10, RPCHops: 10, SQLStatements: 10}
	PathPerOp(&r, stats, 10, meter.PathStats{RPCHops: 1, SQLStatements: 1})
	if len(r.failures) != 0 {
		t.Fatalf("matching stats failed: %v", r.failures)
	}
	PathPerOp(&r, stats, 10, meter.PathStats{RPCHops: 2})
	if len(r.failures) == 0 {
		t.Fatal("hop mismatch not detected")
	}
	r.failures = nil
	PathPerOp(&r, stats, 5, meter.PathStats{RPCHops: 2, SQLStatements: 2})
	if len(r.failures) == 0 {
		t.Fatal("request-count mismatch not detected")
	}
}

func TestDescribe(t *testing.T) {
	tr := sample(t)
	out := Describe(tr)
	for _, want := range []string{"request/read", "app/read", "app.cache/get cache.hit=true", "rpc/sql.Query"} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe missing %q:\n%s", want, out)
		}
	}
	if Describe(nil) != "<nil trace>" {
		t.Error("nil Describe")
	}
}
