package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cachecost/internal/meter"
)

func testRegistry() *Registry {
	r := NewRegistry()
	add(r.Counter("rpc.retries"), 3)
	add(r.Counter("cache.hits", L("node", "cache0")), 10)
	r.Gauge("cache.bytes", L("node", "cache0")).Set(4096)
	h := r.Histogram("request.latency", "seconds")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 1000) // 1µs..100µs
	}
	return r
}

func TestWritePrometheus(t *testing.T) {
	var buf bytes.Buffer
	if err := testRegistry().Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE cachecost_rpc_retries counter",
		"cachecost_rpc_retries 3",
		`cachecost_cache_hits{node="cache0"} 10`,
		"# TYPE cachecost_cache_bytes gauge",
		`cachecost_cache_bytes{node="cache0"} 4096`,
		"# TYPE cachecost_request_latency summary",
		`cachecost_request_latency{quantile="0.99"}`,
		"cachecost_request_latency_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Seconds histograms scale: sum of 1µs..100µs = 5050µs = 0.00505s.
	if !strings.Contains(out, "cachecost_request_latency_sum 0.00505") {
		t.Errorf("latency sum not scaled to seconds:\n%s", out)
	}
	// Every TYPE line appears exactly once per family.
	if n := strings.Count(out, "# TYPE cachecost_request_latency summary"); n != 1 {
		t.Errorf("summary TYPE line appears %d times", n)
	}
}

func TestPromLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird", L("path", `a"b\c`)).Inc()
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `path="a\"b\\c"`) {
		t.Errorf("label not escaped:\n%s", buf.String())
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := testRegistry().Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"counters"`
		Gauges     []json.RawMessage `json:"gauges"`
		Histograms []struct {
			Name  string `json:"name"`
			Count int64  `json:"count"`
			P50   int64  `json:"p50"`
			P99   int64  `json:"p99"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.Counters) != 2 || len(doc.Gauges) != 1 || len(doc.Histograms) != 1 {
		t.Fatalf("doc shape: %d counters, %d gauges, %d hists",
			len(doc.Counters), len(doc.Gauges), len(doc.Histograms))
	}
	h := doc.Histograms[0]
	if h.Name != "request.latency" || h.Count != 100 || h.P50 == 0 || h.P99 < h.P50 {
		t.Fatalf("histogram digest %+v", h)
	}
}

func TestOpsHandlerEndpoints(t *testing.T) {
	m := meter.NewMeter()
	comp := m.Component("app")
	comp.AddBusy(5 * time.Millisecond)
	comp.AddOps(10)
	m.AddRequests(10)

	h := newOpsHandler(OpsConfig{Registry: testRegistry(), Meter: m})
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(path string) (int, string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b), resp.Header.Get("Content-Type")
	}

	code, body, ctype := get("/metrics")
	if code != 200 || !strings.Contains(body, "cachecost_rpc_retries") {
		t.Errorf("/metrics: code %d body:\n%s", code, body)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content-type %q", ctype)
	}

	code, body, ctype = get("/metrics.json")
	if code != 200 || !json.Valid([]byte(body)) {
		t.Errorf("/metrics.json: code %d, valid JSON = %v", code, json.Valid([]byte(body)))
	}
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/metrics.json content-type %q", ctype)
	}

	code, body, _ = get("/statusz")
	if code != 200 {
		t.Errorf("/statusz code %d", code)
	}
	for _, want := range []string{"app", "histograms:", "request.latency", "counters:"} {
		if !strings.Contains(body, want) {
			t.Errorf("/statusz missing %q:\n%s", want, body)
		}
	}

	code, body, _ = get("/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: code %d", code)
	}
	code, _, _ = get("/debug/pprof/cmdline")
	if code != 200 {
		t.Errorf("/debug/pprof/cmdline code %d", code)
	}
}

// TestStatuszWithoutMeter: a registry-only config still renders.
func TestStatuszWithoutMeter(t *testing.T) {
	h := newOpsHandler(OpsConfig{Registry: testRegistry()})
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || !strings.Contains(string(b), "histograms:") {
		t.Fatalf("code %d body:\n%s", resp.StatusCode, b)
	}
}

// TestStatusSectionsOnStatusz: named status renderers registered via
// RegisterStatus are appended to /statusz in registration order, and
// re-registering a name replaces its renderer instead of duplicating
// the section (experiment cells re-register on every run).
func TestStatusSectionsOnStatusz(t *testing.T) {
	reg := testRegistry()
	reg.RegisterStatus("bravo", func(w io.Writer) { fmt.Fprintln(w, "bravo-v1") })
	reg.RegisterStatus("alpha", func(w io.Writer) { fmt.Fprintln(w, "alpha-body") })
	reg.RegisterStatus("bravo", func(w io.Writer) { fmt.Fprintln(w, "bravo-v2") })

	secs := reg.StatusSections()
	if len(secs) != 2 || secs[0].Name != "bravo" || secs[1].Name != "alpha" {
		t.Fatalf("sections = %+v, want [bravo alpha]", secs)
	}

	h := newOpsHandler(OpsConfig{Registry: reg})
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	body := string(b)
	if !strings.Contains(body, "alpha-body") || !strings.Contains(body, "bravo-v2") {
		t.Fatalf("/statusz missing registered sections:\n%s", body)
	}
	if strings.Contains(body, "bravo-v1") {
		t.Fatalf("replaced renderer still rendering:\n%s", body)
	}
	if strings.Index(body, "bravo-v2") > strings.Index(body, "alpha-body") {
		t.Fatalf("sections out of registration order:\n%s", body)
	}
}

// TestStartOpsFailFast is the satellite contract: an unbindable address
// errors synchronously with the address named, before any serving.
func TestStartOpsFailFast(t *testing.T) {
	_, err := StartOps("256.256.256.256:99999", OpsConfig{Registry: NewRegistry()})
	if err == nil {
		t.Fatal("bad address did not error")
	}
	if !strings.Contains(err.Error(), "cannot bind metrics address") {
		t.Errorf("error does not explain the bind failure: %v", err)
	}

	// A taken port must also fail fast.
	first, err := StartOps("127.0.0.1:0", OpsConfig{Registry: NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if _, err := StartOps(first.Addr, OpsConfig{Registry: NewRegistry()}); err == nil {
		t.Fatal("double bind did not error")
	}
}

func TestStartOpsServes(t *testing.T) {
	o, err := StartOps("127.0.0.1:0", OpsConfig{Registry: testRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	resp, err := http.Get("http://" + o.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(b), "cachecost_") {
		t.Fatalf("served metrics missing families:\n%s", b)
	}
	// Close is idempotent enough for defer stacks; nil receiver too.
	var nilSrv *OpsServer
	if err := nilSrv.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

func TestRegisterMeterBridge(t *testing.T) {
	m := meter.NewMeter()
	comp := m.Component("sql.exec")
	comp.AddBusy(2 * time.Millisecond)
	comp.AddOps(4)
	comp.SetMemBytes(1 << 20)
	l := meter.OpenLane(comp)
	l.CountDegraded()
	l.CountDegraded()
	l.Close()

	r := NewRegistry()
	RegisterMeter(r, "meter", m)
	s := r.Snapshot()

	var busy, ops, mem, degraded float64
	for _, c := range s.Counters {
		switch c.Name {
		case "meter.busy_seconds":
			busy = c.Value
		case "meter.ops":
			ops = c.Value
		case "meter.path":
			if c.Labels[0].Value == "Degraded" {
				degraded = c.Value
			}
		}
	}
	for _, g := range s.Gauges {
		if g.Name == "meter.mem_bytes" {
			mem = g.Value
		}
	}
	if busy < 0.001 || ops != 4 || mem != 1<<20 || degraded != 2 {
		t.Fatalf("bridge samples: busy=%g ops=%g mem=%g degraded=%g", busy, ops, mem, degraded)
	}

	// Re-registering under the same name replaces (no duplicates).
	RegisterMeter(r, "meter", m)
	s2 := r.Snapshot()
	var n int
	for _, c := range s2.Counters {
		if c.Name == "meter.ops" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("meter.ops appears %d times after re-registration", n)
	}
	// Nil-safety.
	RegisterMeter(nil, "x", m)
	RegisterMeter(r, "x", nil)
}
