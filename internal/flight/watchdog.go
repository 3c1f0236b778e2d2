package flight

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cachecost/internal/telemetry"
)

// The watchdog's SLO policy.
const (
	// budgetFrac is the SLO error budget: the fraction of requests
	// allowed to go bad (expired on arrival at the front door: the
	// meter.path count Deadline) in steady state — a 99.9% SLO.
	budgetFrac = 0.001
	// fastBurn is the burn-rate multiple that triggers a dump: bad
	// fraction / budgetFrac. 14 is the SRE fast-burn page rate — a
	// 30-day budget gone in ~2 days. Two consecutive over-threshold
	// windows are required, so a single noisy window cannot fire.
	fastBurn = 14
	// totalHist names the histogram whose windowed count is "total
	// requests".
	totalHist = "request.latency"
	// keepDeltas is how many recent snapshot deltas ride into a dump.
	keepDeltas = 12
	// minInterval debounces dumps.
	minInterval = time.Minute
)

// WatchdogConfig parameterizes the SLO burn-rate watchdog.
type WatchdogConfig struct {
	// Registry is the telemetry registry whose snapshot stream the
	// watchdog differences; a dump's /statusz render reads it too.
	// Required.
	Registry *telemetry.Registry
	// Recorder supplies the exemplars a dump preserves. Optional.
	Recorder *Recorder
	// Dir is where black-box dumps are written. Default "flight-dumps".
	Dir string
}

// Watchdog watches the telemetry snapshot stream for an error budget
// burning too fast and writes a black-box dump — retained exemplars, the
// /statusz cost report, and the last K snapshot deltas — to disk when it
// does. The dump is the post-incident record: by the time a human looks,
// the ring has recycled, but the dump holds the exemplars from the
// minutes that mattered.
type Watchdog struct {
	cfg WatchdogConfig

	prev     telemetry.Snapshot
	havePrev bool
	deltas   []deltaEntry
	overrun  int // consecutive over-threshold windows
	lastDump time.Time
	dumpSeq  int
}

type deltaEntry struct {
	At    time.Time          `json:"at"`
	Burn  float64            `json:"burn_rate"`
	Bad   float64            `json:"bad"`
	Total float64            `json:"total"`
	Delta telemetry.Snapshot `json:"delta"`
}

// NewWatchdog builds a Watchdog. tick and Run must not be called
// concurrently with each other.
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.Dir == "" {
		cfg.Dir = "flight-dumps"
	}
	return &Watchdog{cfg: cfg}
}

// tick takes one snapshot, differences it against the previous window,
// and returns the window's burn rate. When the rate has exceeded
// fastBurn for two consecutive windows (and the debounce allows), it
// writes a dump and returns its directory.
func (w *Watchdog) tick(now time.Time) (burn float64, dumpDir string, err error) {
	snap := w.cfg.Registry.Snapshot()
	if !w.havePrev {
		w.prev, w.havePrev = snap, true
		return 0, "", nil
	}
	delta := snap.DeltaSince(w.prev)
	w.prev = snap

	var bad, total float64
	for _, c := range delta.Counters {
		if c.Name == "meter.path" && c.Labels[0].Value == "Deadline" {
			bad += c.Value
		}
	}
	for _, h := range delta.Hists {
		if h.Name == totalHist {
			total += float64(h.Count)
		}
	}
	if total > 0 {
		burn = bad / total / budgetFrac
	}

	w.deltas = append(w.deltas, deltaEntry{At: now, Burn: burn, Bad: bad, Total: total, Delta: delta})
	if over := len(w.deltas) - keepDeltas; over > 0 {
		w.deltas = append(w.deltas[:0:0], w.deltas[over:]...)
	}

	if burn >= fastBurn {
		w.overrun++
	} else {
		w.overrun = 0
	}
	if w.overrun >= 2 && now.Sub(w.lastDump) >= minInterval {
		dumpDir, err = w.dump(now)
		if err == nil {
			w.lastDump = now
			w.overrun = 0
		}
	}
	return burn, dumpDir, err
}

// dump writes the black-box dump unconditionally and returns its
// directory: exemplars.json (the /debug/requests payload), statusz.txt
// (the /statusz render), and deltas.jsonl (the last K snapshot deltas
// with their burn rates).
func (w *Watchdog) dump(now time.Time) (string, error) {
	w.dumpSeq++
	dir := filepath.Join(w.cfg.Dir, fmt.Sprintf("dump-%s-%02d", now.UTC().Format("20060102T150405"), w.dumpSeq))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}

	if w.cfg.Recorder != nil {
		f, err := os.Create(filepath.Join(dir, "exemplars.json"))
		if err != nil {
			return "", err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		err = enc.Encode(w.cfg.Recorder.payload(filter{n: 256}))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return "", err
		}
	}

	f, err := os.Create(filepath.Join(dir, "statusz.txt"))
	if err != nil {
		return "", err
	}
	telemetry.WriteStatusz(f, telemetry.OpsConfig{Registry: w.cfg.Registry})
	if err := f.Close(); err != nil {
		return "", err
	}

	f, err = os.Create(filepath.Join(dir, "deltas.jsonl"))
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	for i := range w.deltas {
		if err := enc.Encode(&w.deltas[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return dir, nil
}

// Run ticks the watchdog every interval until stop closes, then closes
// done — the same goroutine contract as telemetry.Recorder.Run. Dump
// failures are reported on stderr rather than stopping the watch.
func (w *Watchdog) Run(interval time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			if _, dir, err := w.tick(now); err != nil {
				fmt.Fprintf(os.Stderr, "flight watchdog: dump failed: %v\n", err)
			} else if dir != "" {
				fmt.Fprintf(os.Stderr, "flight watchdog: error budget burning fast; black-box dump written to %s\n", dir)
			}
		}
	}
}
