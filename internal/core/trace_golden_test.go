package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cachecost/internal/trace"
	"cachecost/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files instead of comparing")

// TestGoldenTrace replays a fixed 20-op script on the Remote
// architecture and compares the normalized span forest byte-for-byte
// against a committed golden file. Any change to the request path —
// a new hop, a reordered span, a dropped annotation — shows up as a
// readable JSON diff. Regenerate with:
//
//	go test ./internal/core -run TestGoldenTrace -update
func TestGoldenTrace(t *testing.T) {
	svc, tr := newTracedKV(t, Remote, nil)
	svc.m.Reset()
	tr.ResetTraces()

	// A scripted mix: cold misses, warm hits, and invalidating writes.
	// No randomness anywhere, so the span forest is fully deterministic.
	for i := 0; i < 20; i++ {
		key := workload.KeyName(i % invKeys)
		if i%5 == 4 {
			if err := svc.Write(key, ValueFor(key, 256)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, err := svc.Read(key); err != nil {
			t.Fatal(err)
		}
	}

	got := trace.Normalize(tr.Traces())
	if len(got) != 20 {
		t.Fatalf("recorded %d traces, want 20", len(got))
	}
	buf, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')

	path := filepath.Join("testdata", "golden_trace.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d traces, %d bytes)", path, len(got), len(buf))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden file (%v); generate with: go test ./internal/core -run TestGoldenTrace -update", err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("trace forest diverged from golden file.\n%s\nRegenerate with -update if the path change is intentional.",
			goldenDiff(want, buf))
	}
}

// goldenDiff renders the first few differing lines of two JSON blobs.
func goldenDiff(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	var out bytes.Buffer
	shown := 0
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if bytes.Equal(w, g) {
			continue
		}
		fmt.Fprintf(&out, "line %d:\n  golden: %s\n  got:    %s\n", i+1, w, g)
		if shown++; shown >= 8 {
			fmt.Fprintf(&out, "  ... (further differences elided)\n")
			break
		}
	}
	return out.String()
}
