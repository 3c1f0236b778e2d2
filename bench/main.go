// Command bench is the repository's benchmark: six workloads, each an
// architecture assembled from the laboratory's exported parts and driven
// closed-loop with a seeded op stream, reporting end-to-end metrics and a
// per-layer ledger measured from outside the program. See README.md.
//
//	go run -C bench . -seed 1                              # every workload, both modes
//	go run -C bench . --workload remote_1k --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cachecost/internal/core"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// setUps is how many times an end-to-end run assembles and warms the
// deployment: setup_s is their median, the window runs on the last.
const setUps = 3

// runWorkload measures sp for seconds. Untraced, it reports the
// end-to-end metrics; traced, the per-layer ones, from a window that
// interleaves untraced and traced slices followed by the layer replay.
// spansPath, when non-empty, receives the recorded spans.
func runWorkload(sp spec, seed int64, seconds float64, trace bool, spansPath string) (*result, error) {
	in, err := drawInputs(sp, seed)
	if err != nil {
		return nil, err
	}
	if !sp.tcp {
		// One client on one pinned thread, so the meter's thread-CPU
		// readings are all taken against one clock.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	n := setUps
	if trace {
		n = 1
	}
	var r *runner
	var setupS []float64
	for i := 0; i < n; i++ {
		if r != nil {
			r.d.close()
		}
		t0 := time.Now()
		if r, err = setUp(sp, in); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer r.d.close()

	var values map[string]float64
	table := endToEnd
	if !trace {
		values = endToEndMetrics(r.window(seconds, false), medianOf(setupS))
	} else {
		table = perLayer
		slices := r.window(0.6*seconds, true)
		st := r.d.rec.stats()
		if st.overrun > 0 {
			return nil, fmt.Errorf("bench: %d traced requests have child spans longer than their root", st.overrun)
		}
		rp, err := r.replay(&st, seed)
		if err != nil {
			return nil, err
		}
		values = layerMetrics(sp, slices, &st, rp)
		if spansPath != "" {
			if err := r.d.rec.dump(spansPath); err != nil {
				return nil, err
			}
		}
	}
	res := &result{
		Attempted: r.attempted,
		Failed:    r.failed,
		// linked_hit_1k is defined by a hit ratio of exactly 1.
		Correct: r.failed == 0 && (sp.arch != core.Linked || (r.misses == 0 && r.hits == r.attempted)),
		Metrics: map[string]metricValue{},
	}
	for _, m := range table {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("bench: metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if len(values) != len(table) {
		return nil, fmt.Errorf("bench: measured %d metrics, published %d", len(values), len(table))
	}
	return res, nil
}

// spansFile names the span dump of a workload inside the checkout's
// build directory, or "" when the checkout root cannot be found.
func spansFile(workload string) string {
	dir, err := os.Getwd()
	if err != nil {
		return ""
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
	out := filepath.Join(dir, ".bench_build")
	if os.MkdirAll(out, 0o755) != nil {
		return ""
	}
	return filepath.Join(out, "spans-"+workload+".csv")
}

func printMetrics(table []metric, res *result) {
	for _, m := range table {
		fmt.Printf("  %-40s %16.4f %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
}

func main() {
	name := flag.String("workload", "", "workload to run (default: all, in both modes)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 8, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced window and the layer replay")
	flag.Parse()

	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	run := specs
	modes := []bool{false, true}
	if *name != "" {
		sp, ok := specByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		run, modes = []spec{sp}, []bool{*trace == 1}
	}
	ok := true
	var last *result
	for _, sp := range run {
		for _, traced := range modes {
			fmt.Printf("workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d\n", sp.name, *seed, *seconds, traced, procs)
			path := ""
			if traced {
				path = spansFile(sp.name)
			}
			res, err := runWorkload(sp, *seed, *seconds, traced, path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			table := endToEnd
			if traced {
				table = perLayer
			}
			printMetrics(table, res)
			fmt.Printf("  attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
			ok = ok && res.Correct
			last = res
		}
	}
	if *name != "" {
		line, err := json.Marshal(last)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}
