package flight

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"cachecost/internal/meter"
	"cachecost/internal/trace"
)

// coreSecondsPerMonth converts busy seconds to core-months for pricing
// (730h per month, the cloud billing convention the meter report uses).
const coreSecondsPerMonth = 730 * 3600

// recordJSON is the wire shape of one Record on /debug/requests.
type recordJSON struct {
	TraceID  uint64           `json:"trace_id,omitempty"`
	SpanID   uint64           `json:"span_id,omitempty"`
	Method   string           `json:"method"`
	Arch     string           `json:"arch,omitempty"`
	Start    int64            `json:"start_unix_ns"`
	Intended int64            `json:"intended_unix_ns,omitempty"`
	DurMS    float64          `json:"dur_ms"`
	Outcome  string           `json:"outcome"`
	Dominant string           `json:"dominant"`
	Stages   map[string]int64 `json:"stages_ns"`
	CostNS   int64            `json:"cost_busy_ns,omitempty"`
	CostUSD  float64          `json:"cost_usd,omitempty"`
	Err      string           `json:"err,omitempty"`
}

type exemplarJSON struct {
	recordJSON
	Spans []trace.Span `json:"spans,omitempty"`
}

func (r *Recorder) toJSON(rec *Record) recordJSON {
	stages := make(map[string]int64, meter.NumStages)
	for s := meter.Stage(0); s < meter.NumStages; s++ {
		if rec.Stages[s] != 0 {
			stages[s.String()] = rec.Stages[s]
		}
	}
	out := recordJSON{
		TraceID:  rec.TraceID,
		SpanID:   rec.SpanID,
		Method:   rec.Method,
		Arch:     rec.Arch,
		Start:    rec.Start,
		Intended: rec.Intended,
		DurMS:    float64(rec.Dur) / 1e6,
		Outcome:  rec.Outcome().String(),
		Dominant: rec.DominantStage().String(),
		Stages:   stages,
		CostNS:   rec.Cost,
		Err:      rec.Err,
	}
	if r.cfg.CPUCoreMonthUSD > 0 && rec.Cost > 0 {
		out.CostUSD = time.Duration(rec.Cost).Seconds() / coreSecondsPerMonth * r.cfg.CPUCoreMonthUSD
	}
	return out
}

// filter is the parsed /debug/requests query.
type filter struct {
	outcome    Outcome
	hasOutcome bool
	arch       string
	minDur     time.Duration
	n          int
}

func (f filter) keep(rec *Record) bool {
	if f.hasOutcome && rec.Outcome() != f.outcome {
		return false
	}
	if f.arch != "" && rec.Arch != f.arch {
		return false
	}
	if f.minDur > 0 && time.Duration(rec.Dur) < f.minDur {
		return false
	}
	return true
}

// debugPayload is the /debug/requests response body.
type debugPayload struct {
	Total     int64                     `json:"total"`
	Ring      []recordJSON              `json:"ring"`
	Exemplars map[string][]exemplarJSON `json:"exemplars"`
}

// Handler serves the recorder's state as JSON. Query parameters:
//
//	outcome=ok|deadline|degraded|error  keep only that outcome
//	arch=<label>                             keep only that architecture
//	min_ms=<float>                           keep only slower requests
//	n=<int>                                  cap ring records (default 256)
//
// Filters apply to the ring and to every exemplar class alike.
func Handler(r *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if r == nil {
			http.Error(w, "flight recorder not enabled", http.StatusNotFound)
			return
		}
		q := req.URL.Query()
		f := filter{n: 256}
		if s := q.Get("outcome"); s != "" {
			o, ok := ParseOutcome(s)
			if !ok {
				http.Error(w, "unknown outcome "+strconv.Quote(s), http.StatusBadRequest)
				return
			}
			f.outcome, f.hasOutcome = o, true
		}
		f.arch = q.Get("arch")
		if s := q.Get("min_ms"); s != "" {
			ms, err := strconv.ParseFloat(s, 64)
			if err != nil {
				http.Error(w, "bad min_ms: "+err.Error(), http.StatusBadRequest)
				return
			}
			f.minDur = time.Duration(ms * float64(time.Millisecond))
		}
		if s := q.Get("n"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil {
				http.Error(w, "bad n: "+err.Error(), http.StatusBadRequest)
				return
			}
			f.n = n
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.payload(f))
	})
}

func (r *Recorder) payload(f filter) debugPayload {
	p := debugPayload{
		Total:     r.Total(),
		Ring:      []recordJSON{},
		Exemplars: make(map[string][]exemplarJSON, 5),
	}
	for _, rec := range r.Ring(0) {
		if len(p.Ring) >= f.n {
			break
		}
		if f.keep(&rec) {
			p.Ring = append(p.Ring, r.toJSON(&rec))
		}
	}
	ex := r.Exemplars()
	for _, cls := range []struct {
		name string
		list []Exemplar
	}{
		{"slowest", ex.Slowest},
		{"deadline", ex.Deadline},
		{"degraded", ex.Degraded},
		{"error", ex.Error},
	} {
		out := []exemplarJSON{}
		for i := range cls.list {
			e := &cls.list[i]
			if f.keep(&e.Record) {
				out = append(out, exemplarJSON{recordJSON: r.toJSON(&e.Record), Spans: e.Spans})
			}
		}
		p.Exemplars[cls.name] = out
	}
	return p
}
