package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func published(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json and the tables in spec.go say the same thing.
func TestPublishedTablesMatch(t *testing.T) {
	b := published(t)
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go %q", i, w.Name, specs[i].name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, js []jsonMetric, table []metric, layer bool) {
		if len(js) != len(table) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, spec.go %d", kind, len(js), len(table))
		}
		for i, m := range table {
			j := js[i]
			if j.Name != m.name || j.Unit != m.unit || j.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, spec.go %s/%s/%s", kind, i, j, m.name, m.unit, m.better)
			}
			if !name.MatchString(m.name) || !unit.MatchString(m.unit) {
				t.Errorf("%s: %q with unit %q is outside the contract's alphabet", kind, m.name, m.unit)
			}
			if m.better != "lower" && m.better != "higher" {
				t.Errorf("%s: %s is better %q", kind, m.name, m.better)
			}
			switch {
			case layer && (m.moves == "" || m.on == "" || j.Bound != nil):
				t.Errorf("%s must name the end-to-end metric and workload it should move, and carry no bound", m.name)
			case !layer && (j.Bound == nil || *j.Bound != m.bound || m.bound <= 0 || m.bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in spec.go", m.name, j.Bound, m.bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, false)
	check("per_layer", b.PerLayer, perLayer, true)
}

// The whole pipeline at 1/100 scale, through the code path main takes:
// every published metric comes out, and nothing else does.
func TestSmoke(t *testing.T) {
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(sp.scaled(100), 1, 0.05, traced, "")
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d ops failed", sp.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			table := endToEnd
			if traced {
				table = perLayer
			}
			if len(res.Metrics) != len(table) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d published", sp.name, traced, len(res.Metrics), len(table))
			}
			for _, m := range table {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: %s emitted as %+v (present=%v)", sp.name, traced, m.name, got, ok)
				}
			}
			if !traced {
				for name, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v; the contract wants it never 0", sp.name, name, v.Value)
					}
				}
			}
		}
	}
}
