// Package assert is the trace-assertion harness: helpers for tests that
// check the paper's path model structurally — "a Linked hit crosses zero
// network hops", "a Remote hit issues two cache messages and no storage
// statement" — against captured traces and the meter's path counts,
// rather than against priced outcomes.
package assert

import (
	"fmt"

	"cachecost/internal/meter"
	"cachecost/internal/trace"
)

// T is the subset of *testing.T the harness needs.
type T interface {
	Helper()
	Errorf(format string, args ...any)
}

// Spans returns the spans in tr matching component and op. Empty strings
// match anything, so Spans(tr, "rpc", "") is "all hop spans".
func Spans(tr *trace.Trace, component, op string) []trace.Span {
	if tr == nil {
		return nil
	}
	var out []trace.Span
	for _, sp := range tr.Spans {
		if (component == "" || sp.Component == component) && (op == "" || sp.Op == op) {
			out = append(out, sp)
		}
	}
	return out
}

// SpanCount asserts tr contains exactly want spans matching component/op.
func SpanCount(t T, tr *trace.Trace, component, op string, want int) {
	t.Helper()
	got := Spans(tr, component, op)
	if len(got) != want {
		t.Errorf("trace %d: %d %s/%s spans, want %d\n%s",
			traceID(tr), len(got), label(component), label(op), want, Describe(tr))
	}
}

// NoSpans asserts tr contains no spans matching component/op.
func NoSpans(t T, tr *trace.Trace, component, op string) {
	t.Helper()
	SpanCount(t, tr, component, op, 0)
}

// Annotated asserts that at least one span matching component/op carries
// annotation key=value.
func Annotated(t T, tr *trace.Trace, component, op, key, value string) {
	t.Helper()
	for _, sp := range Spans(tr, component, op) {
		if v, ok := sp.Annotation(key); ok && v == value {
			return
		}
	}
	t.Errorf("trace %d: no %s/%s span annotated %s=%s\n%s",
		traceID(tr), label(component), label(op), key, value, Describe(tr))
}

// Parented asserts every span in tr except the root has a parent that is
// also in tr — i.e. the trace is a single connected tree, spans from
// concurrent workers did not interleave into it.
func Parented(t T, tr *trace.Trace) {
	t.Helper()
	if tr == nil || len(tr.Spans) == 0 {
		t.Errorf("empty trace")
		return
	}
	ids := make(map[trace.SpanID]bool, len(tr.Spans))
	for _, sp := range tr.Spans {
		ids[sp.ID] = true
	}
	roots := 0
	for _, sp := range tr.Spans {
		if sp.Parent == 0 {
			roots++
			continue
		}
		if !ids[sp.Parent] {
			t.Errorf("trace %d: span %d (%s/%s) has parent %d outside the trace\n%s",
				traceID(tr), sp.ID, sp.Component, sp.Op, sp.Parent, Describe(tr))
		}
	}
	if roots != 1 {
		t.Errorf("trace %d: %d root spans, want 1\n%s", traceID(tr), roots, Describe(tr))
	}
}

// PathPerOp asserts that stats, accumulated over ops operations, match
// the per-operation expectation exactly (want fields are per-op counts;
// Requests in want is ignored — it is checked against ops).
func PathPerOp(t T, stats meter.PathStats, ops int64, want meter.PathStats) {
	t.Helper()
	if stats.Requests != ops {
		t.Errorf("path stats: %d requests counted, want %d", stats.Requests, ops)
	}
	check := func(name string, got, wantPer int64) {
		t.Helper()
		if got != wantPer*ops {
			t.Errorf("path stats: %s = %d over %d ops, want %d/op (=%d)",
				name, got, ops, wantPer, wantPer*ops)
		}
	}
	check("RPCHops", stats.RPCHops, want.RPCHops)
	check("CacheMsgs", stats.CacheMsgs, want.CacheMsgs)
	check("SQLStatements", stats.SQLStatements, want.SQLStatements)
	check("RaftShips", stats.RaftShips, want.RaftShips)
	check("CacheHits", stats.CacheHits, want.CacheHits)
	check("CacheMisses", stats.CacheMisses, want.CacheMisses)
	check("LinkedHits", stats.LinkedHits, want.LinkedHits)
	check("LinkedMisses", stats.LinkedMisses, want.LinkedMisses)
	check("Faults", stats.Faults, want.Faults)
}

// Describe renders a trace as an indented span tree for failure messages.
func Describe(tr *trace.Trace) string {
	if tr == nil {
		return "<nil trace>"
	}
	depth := map[trace.SpanID]int{}
	out := fmt.Sprintf("trace %d (%s):\n", tr.ID, tr.Root)
	for _, sp := range tr.Spans {
		d := 0
		if sp.Parent != 0 {
			d = depth[sp.Parent] + 1
		}
		depth[sp.ID] = d
		out += fmt.Sprintf("%*s- %s/%s", 2*d+2, "", sp.Component, sp.Op)
		for _, a := range sp.Annotations {
			out += fmt.Sprintf(" %s=%s", a.Key, a.Value)
		}
		out += "\n"
	}
	return out
}

func traceID(tr *trace.Trace) trace.TraceID {
	if tr == nil {
		return 0
	}
	return tr.ID
}

func label(s string) string {
	if s == "" {
		return "*"
	}
	return s
}
