package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fastArgs shrinks every population so a figure cell finishes in
// milliseconds; tests exercise the CLI plumbing, not the estimates.
var fastArgs = []string{"-ops", "60", "-warmup", "20", "-keys", "60", "-tables", "20"}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestListExitsZero(t *testing.T) {
	code, stdout, _ := runCLI(t, "list")
	if code != 0 {
		t.Fatalf("list exited %d", code)
	}
	if !strings.Contains(stdout, "fig2a") || strings.Count(stdout, "\n") != 20 {
		t.Fatalf("list output is not the 20 figures:\n%s", stdout)
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-nosuchflag"},
		{"fig-does-not-exist"},
	} {
		code, _, stderr := runCLI(t, args...)
		if code != 2 {
			t.Errorf("args %v exited %d, want 2 (stderr: %s)", args, code, stderr)
		}
	}
}

// The batch figure runs through the -figure/-batchsizes flag form and
// emits one row per (arch, B) cell.
func TestBatchFigureFlags(t *testing.T) {
	code, stdout, stderr := runCLI(t, append([]string{"-json", "-figure", "batch", "-batchsizes", "1,4"}, fastArgs...)...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	var tables []struct {
		ID   string     `json:"id"`
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(stdout), &tables); err != nil {
		t.Fatalf("-json emitted invalid JSON: %v\n%s", err, stdout)
	}
	if len(tables) != 1 || tables[0].ID != "batch" {
		t.Fatalf("unexpected tables: %+v", tables)
	}
	if len(tables[0].Rows) != 6 { // 3 archs x 2 batch sizes
		t.Fatalf("rows = %d, want 6:\n%v", len(tables[0].Rows), tables[0].Rows)
	}
}

func TestBadBatchSizesExitTwo(t *testing.T) {
	for _, bad := range []string{"0", "-3", "x", ","} {
		code, _, stderr := runCLI(t, "-batchsizes", bad, "batch")
		if code != 2 {
			t.Errorf("-batchsizes %q exited %d, want 2 (stderr: %s)", bad, code, stderr)
		}
	}
}

// An unwritable output path must fail the run up front — before any
// experiment burns minutes — with the path named on stderr.
func TestUnwritableOutputFailsBeforeRunning(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "out.json")
	for _, flagName := range []string{"-out", "-trace"} {
		code, _, stderr := runCLI(t, append([]string{flagName, bad}, append(fastArgs, "fig2a")...)...)
		if code != 1 {
			t.Errorf("%s to unwritable path exited %d, want 1", flagName, code)
		}
		if !strings.Contains(stderr, bad) || !strings.Contains(stderr, "cannot write output") {
			t.Errorf("%s error does not name the path:\n%s", flagName, stderr)
		}
	}
}

func TestJSONOutput(t *testing.T) {
	code, stdout, stderr := runCLI(t, append([]string{"-json"}, append(fastArgs, "fig2a")...)...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	var tables []struct {
		ID     string     `json:"id"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(stdout), &tables); err != nil {
		t.Fatalf("-json emitted invalid JSON: %v\n%s", err, stdout)
	}
	if len(tables) != 1 || tables[0].ID != "fig2a" || len(tables[0].Rows) == 0 {
		t.Fatalf("unexpected tables: %+v", tables)
	}
}

func TestOutFileReceivesTables(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tables.txt")
	code, stdout, stderr := runCLI(t, append([]string{"-out", path}, append(fastArgs, "fig2a")...)...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if stdout != "" {
		t.Errorf("-out still wrote to stdout:\n%s", stdout)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "fig2a") {
		t.Fatalf("table file missing figure output:\n%s", b)
	}
}

// TestTraceFileIsChromeLoadable runs an experiment-backed figure with
// -trace and checks the emitted file is a Chrome trace-event array with
// the request-path span names.
func TestTraceFileIsChromeLoadable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	code, _, stderr := runCLI(t, append([]string{"-trace", path}, append(fastArgs, "fig4a")...)...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
	}
	if err := json.Unmarshal(b, &events); err != nil {
		t.Fatalf("-trace emitted invalid JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace file holds no events")
	}
	names := map[string]bool{}
	for _, ev := range events {
		if ev.Ph != "X" {
			t.Fatalf("event phase %q, want X", ev.Ph)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{"request.read", "app.read"} {
		if !names[want] {
			t.Errorf("trace file missing %q spans (have %v)", want, names)
		}
	}
}

// A bad -metrics address must fail the run up front, before any
// experiment burns minutes — the same contract as -out and -trace.
func TestBadMetricsAddrFailsBeforeRunning(t *testing.T) {
	code, _, stderr := runCLI(t, append([]string{"-metrics", "256.256.256.256:1"}, append(fastArgs, "fig2a")...)...)
	if code != 1 {
		t.Fatalf("bad -metrics exited %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "cannot bind metrics address") || !strings.Contains(stderr, "256.256.256.256:1") {
		t.Fatalf("-metrics error does not name the address:\n%s", stderr)
	}
}

// TestJSONCellsCarryPathAndHists checks the -json cell stream: every
// experiment-backed cell reports its exact path counters (with no -trace
// flag — they are always exact) and its measured latency digests.
func TestJSONCellsCarryPathAndHists(t *testing.T) {
	code, stdout, stderr := runCLI(t, append([]string{"-json"}, append(fastArgs, "fig5b")...)...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	var tables []struct {
		ID    string `json:"id"`
		Cells []struct {
			Cell   string `json:"cell"`
			Result struct {
				Ops  int `json:"Ops"`
				Path struct {
					Requests int64 `json:"Requests"`
					RPCHops  int64 `json:"RPCHops"`
				} `json:"Path"`
				Hists []struct {
					Name  string `json:"name"`
					Count int64  `json:"count"`
					P99   int64  `json:"p99"`
				} `json:"Hists"`
			} `json:"result"`
		} `json:"cells"`
	}
	if err := json.Unmarshal([]byte(stdout), &tables); err != nil {
		t.Fatalf("-json emitted invalid JSON: %v\n%s", err, stdout)
	}
	if len(tables) != 1 || len(tables[0].Cells) == 0 {
		t.Fatalf("no cells in -json output: %+v", tables)
	}
	for _, c := range tables[0].Cells {
		r := c.Result
		if r.Path.Requests == 0 || r.Path.RPCHops == 0 {
			t.Errorf("cell %s: path counters empty without -trace; they are always exact (%+v)", c.Cell, r.Path)
		}
		var sawReq bool
		for _, h := range r.Hists {
			if h.Name == "request.latency" {
				sawReq = true
				if h.Count != int64(r.Ops) {
					t.Errorf("cell %s: request.latency count %d != ops %d", c.Cell, h.Count, r.Ops)
				}
				if h.P99 <= 0 {
					t.Errorf("cell %s: request.latency p99 = %d", c.Cell, h.P99)
				}
			}
		}
		if !sawReq {
			t.Errorf("cell %s has no request.latency digest (hists: %+v)", c.Cell, r.Hists)
		}
	}
}

// TestSnapshotFileIsJSONL runs a figure with -snapshot and checks the
// recorder appended parseable JSONL lines (at minimum the final flush).
func TestSnapshotFileIsJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.jsonl")
	code, _, stderr := runCLI(t, append([]string{"-snapshot", path}, append(fastArgs, "fig5b")...)...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("snapshot file is empty")
	}
	var last struct {
		TS       string             `json:"ts"`
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("snapshot line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if last.TS == "" {
		t.Fatal("snapshot line has no timestamp")
	}
}

// TestMetricsEndpointServesDuringRun binds an ephemeral ops endpoint and
// scrapes it after the run completes (the server stays up for the
// process lifetime of run()'s caller; here we scrape in-flight via the
// figure's own duration being too short, so instead just assert the
// bind+serve lifecycle succeeded and the run exited clean).
func TestMetricsFlagBindsAndRuns(t *testing.T) {
	code, _, stderr := runCLI(t, append([]string{"-metrics", "127.0.0.1:0"}, append(fastArgs, "fig2a")...)...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "serving metrics on http://") {
		t.Fatalf("no serving banner on stderr:\n%s", stderr)
	}
}

// The overload figure runs through -offered/-arrival/-slo and emits one
// row per (arch, offered load), with the shed columns present.
func TestOverloadFigureFlags(t *testing.T) {
	code, stdout, stderr := runCLI(t, append([]string{
		"-json", "-figure", "overload", "-offered", "0.4,2.5", "-arrival", "bursty", "-slo", "20ms",
	}, fastArgs...)...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	var tables []struct {
		ID     string     `json:"id"`
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(stdout), &tables); err != nil {
		t.Fatalf("-json emitted invalid JSON: %v\n%s", err, stdout)
	}
	if len(tables) != 1 || tables[0].ID != "overload" {
		t.Fatalf("unexpected tables: %+v", tables)
	}
	if len(tables[0].Rows) != 6 { // 3 archs x 2 offered loads
		t.Fatalf("rows = %d, want 6:\n%v", len(tables[0].Rows), tables[0].Rows)
	}
	if !strings.Contains(tables[0].Title, "bursty") {
		t.Fatalf("-arrival bursty not reflected in title: %q", tables[0].Title)
	}
	want := []string{"arch", "load_x", "offered_qps", "goodput_qps"}
	for i, col := range want {
		if tables[0].Header[i] != col {
			t.Fatalf("header = %v, want prefix %v", tables[0].Header, want)
		}
	}
}

func TestBadOverloadFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-offered", "0", "overload"},
		{"-offered", "x", "overload"},
		{"-offered", ",", "overload"},
		{"-arrival", "sawtooth", "overload"},
	} {
		code, _, stderr := runCLI(t, args...)
		if code != 2 {
			t.Errorf("args %v exited %d, want 2 (stderr: %s)", args, code, stderr)
		}
	}
}
