package flight

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"cachecost/internal/meter"
	"cachecost/internal/trace"
)

// TestDebugRequestsFilters exercises /debug/requests end to end: the
// outcome, arch and min-latency filters apply to the ring and to every
// exemplar class alike.
func TestDebugRequestsFilters(t *testing.T) {
	r := New(Config{CPUCoreMonthUSD: 20})
	base := time.Now()

	mk := func(arch string, dur time.Duration, count func(*meter.Lane)) {
		l := meter.OpenLane(testComp)
		if count != nil {
			count(l)
		}
		l.Exclude(dur / 2) // the request was billed dur/2 of busy time
		r.Done(r.Begin(trace.SpanContext{}.WithLane(l)), arch, "app.Read", base, dur, nil)
		l.Close()
	}
	mk("Base", 1*time.Millisecond, nil)
	mk("Base", 30*time.Millisecond, (*meter.Lane).CountDeadline)
	mk("Linked", 5*time.Millisecond, (*meter.Lane).CountDegraded)

	h := Handler(r)
	get := func(query string) (p struct {
		Total     int64                       `json:"total"`
		Ring      []map[string]any            `json:"ring"`
		Exemplars map[string][]map[string]any `json:"exemplars"`
	}) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/requests"+query, nil))
		if w.Code != 200 {
			t.Fatalf("GET %s: status %d: %s", query, w.Code, w.Body)
		}
		if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil {
			t.Fatalf("GET %s: %v", query, err)
		}
		return p
	}

	all := get("")
	if all.Total != 3 || len(all.Ring) != 3 {
		t.Fatalf("unfiltered: total=%d ring=%d, want 3/3", all.Total, len(all.Ring))
	}
	if n := len(all.Exemplars["deadline"]); n != 1 {
		t.Fatalf("deadline exemplars = %d, want 1", n)
	}
	// The priced cost surfaces when configured.
	if usd, ok := all.Exemplars["deadline"][0]["cost_usd"].(float64); !ok || usd <= 0 {
		t.Fatalf("deadline exemplar cost_usd = %v, want > 0", all.Exemplars["deadline"][0]["cost_usd"])
	}

	byOutcome := get("?outcome=deadline")
	if len(byOutcome.Ring) != 1 || byOutcome.Ring[0]["outcome"] != "deadline" {
		t.Fatalf("outcome filter ring = %+v, want the one deadline record", byOutcome.Ring)
	}
	if len(byOutcome.Exemplars["degraded"]) != 0 || len(byOutcome.Exemplars["deadline"]) != 1 {
		t.Fatal("outcome filter must apply to exemplar classes too")
	}

	byArch := get("?arch=Linked")
	if len(byArch.Ring) != 1 || byArch.Ring[0]["arch"] != "Linked" {
		t.Fatalf("arch filter ring = %+v, want the one Linked record", byArch.Ring)
	}

	byLat := get("?min_ms=10")
	if len(byLat.Ring) != 1 || byLat.Ring[0]["dur_ms"].(float64) < 10 {
		t.Fatalf("min_ms filter ring = %+v, want the one 30ms record", byLat.Ring)
	}

	// Bad query values are 400s, not silent passes.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/requests?outcome=nope", nil))
	if w.Code != 400 {
		t.Fatalf("unknown outcome: status %d, want 400", w.Code)
	}
}
