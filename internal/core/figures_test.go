package core

import (
	"strconv"
	"strings"
	"testing"

	"cachecost/internal/workload"
)

// tinyOpts keeps figure smoke tests fast; shape assertions here use
// generous margins, with the tight checks living in the dedicated tests
// of core_test.go.
func tinyOpts() FigOptions {
	return FigOptions{Ops: 400, Warmup: 150, Keys: 300, Tables: 60, Seed: 1}
}

func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("table %s has no cell (%d,%d):\n%s", tab.ID, row, col, tab)
	}
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric", row, col, tab.Rows[row][col])
	}
	return v
}

func TestFig2aShape(t *testing.T) {
	tab, err := fig2a(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		if s := cell(t, tab, i, 1); s <= 1 {
			t.Errorf("alpha row %d: saving %v <= 1", i, s)
		}
		// Replication reduces but does not erase the saving.
		if s3 := cell(t, tab, i, 2); s3 <= 1 || s3 >= cell(t, tab, i, 1) {
			t.Errorf("alpha row %d: N_r=3 saving %v out of range", i, s3)
		}
	}
}

func TestFig2bShape(t *testing.T) {
	tab, err := fig2b(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	prev := 1e18
	for i := range tab.Rows {
		s := cell(t, tab, i, 1)
		if s > prev+1e-9 {
			t.Errorf("saving should not increase with N_r: row %d %v after %v", i, s, prev)
		}
		prev = s
		if sx := cell(t, tab, i, 2); sx <= 1 {
			t.Errorf("40x-memory optimal saving should stay above 1, got %v", sx)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	tab, err := fig3(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) float64 {
		t.Helper()
		for i, row := range tab.Rows {
			if row[0] == name {
				return cell(t, tab, i, 1)
			}
		}
		t.Fatalf("no metric %q in fig3", name)
		return 0
	}
	if r := get("read ratio"); r < 0.90 || r > 0.96 {
		t.Errorf("read ratio = %v, want ~0.93", r)
	}
	if p50 := get("value size p50 (KB)"); p50 < 10 || p50 > 50 {
		t.Errorf("median = %vKB, want ~23KB", p50)
	}
	if get("value size p99 (KB)") <= get("value size p50 (KB)")*3 {
		t.Error("tail should be heavy")
	}
	if get("access share of top 10 keys") <= 0.01 {
		t.Error("access skew missing")
	}
}

func TestFig4aShape(t *testing.T) {
	if raceEnabled {
		t.Skip("measured cost ratios are distorted by race-detector instrumentation")
	}
	tab, err := fig4a(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// At every read ratio: Linked <= Remote <= Base (small tolerance for
	// measurement noise at tiny scale).
	for i := range tab.Rows {
		base, remote, linked := cell(t, tab, i, 1), cell(t, tab, i, 2), cell(t, tab, i, 3)
		if linked > remote*1.15 {
			t.Errorf("row %d: linked %v should not exceed remote %v", i, linked, remote)
		}
		if remote > base*1.15 {
			t.Errorf("row %d: remote %v should not exceed base %v", i, remote, base)
		}
	}
	// Saving grows with read ratio.
	if cell(t, tab, 4, 4) <= cell(t, tab, 0, 4) {
		t.Errorf("saving should grow with read ratio: %v -> %v",
			cell(t, tab, 0, 4), cell(t, tab, 4, 4))
	}
}

func TestFig5bShape(t *testing.T) {
	if raceEnabled {
		t.Skip("measured cost ratios are distorted by race-detector instrumentation")
	}
	tab, err := fig5b(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	base, linked := cell(t, tab, 0, 1), cell(t, tab, 2, 1)
	if linked >= base {
		t.Errorf("Linked (%v) should undercut Base (%v) on the Meta trace", linked, base)
	}
}

func TestFig8Shape(t *testing.T) {
	tab, err := fig8(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][4] != "true" {
		t.Error("unfenced run must reproduce the stale-cache anomaly")
	}
	if tab.Rows[1][4] != "false" {
		t.Error("fenced run must stay consistent")
	}
}

func TestFigConsistencyShape(t *testing.T) {
	if raceEnabled {
		t.Skip("measured cost ratios are distorted by race-detector instrumentation")
	}
	tab, err := figConsistency(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	var linked, versioned, owned float64
	for i, row := range tab.Rows {
		switch row[0] {
		case "Linked":
			linked = cell(t, tab, i, 1)
		case "Linked+Version":
			versioned = cell(t, tab, i, 1)
		case "Linked+Owned":
			owned = cell(t, tab, i, 1)
		}
	}
	if !(versioned > linked) {
		t.Errorf("version checks should cost: linked=%v versioned=%v", linked, versioned)
	}
	if !(owned < versioned) {
		t.Errorf("ownership should undercut version checks: owned=%v versioned=%v", owned, versioned)
	}
}

func TestFigAllocationShape(t *testing.T) {
	if raceEnabled {
		t.Skip("measured cost ratios are distorted by race-detector instrumentation")
	}
	tab, err := figAllocation(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The all-storage split must be the most expensive; a linked-heavy
	// split must beat it clearly (hypothesis 2).
	allStorage := cell(t, tab, 0, 3)
	linkedHeavy := cell(t, tab, 3, 3) // 75% share
	if !(linkedHeavy < allStorage) {
		t.Errorf("75%% linked split (%v) should undercut all-storage (%v)", linkedHeavy, allStorage)
	}
	// Hit ratio grows as memory moves to the app.
	if cell(t, tab, 4, 4) <= cell(t, tab, 1, 4) {
		t.Errorf("hit ratio should grow with s_A share")
	}
}

func TestFigMarginalShape(t *testing.T) {
	tab, err := figMarginal(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// At s_A = 0 the app-cache marginal must dominate.
	if tab.Rows[0][4] != "app cache" {
		t.Errorf("empty app cache should be the best next byte, got %q", tab.Rows[0][4])
	}
}

// TestTieringNotesClaimSLOOnlyWhenMet: the tiering notes compare splits
// "at a met SLO" only when no cell expired an op. A sweep with expiring
// cells names them instead, interior winner or extreme alike.
func TestTieringNotesClaimSLOOnlyWhenMet(t *testing.T) {
	sweep := func(expired10, expired50 int64) []tieringOutcome {
		return []tieringOutcome{{0, 5.8, 0}, {10, 5.3, expired10}, {25, 5.4, 0}, {50, 5.7, expired50}, {100, 6.7, 0}}
	}
	edge := []tieringOutcome{{0, 3.6, 0}, {10, 3.8, 0}, {25, 3.9, 0}, {50, 4.0, 0}, {100, 4.1, 0}}
	archs := []Arch{Base, Linked}

	met := strings.Join(tieringNotes(archs, [][]tieringOutcome{sweep(0, 0), edge}), "\n")
	if !strings.Contains(met, "Base: 10% DRAM wins") || strings.Count(met, "met SLO") != 2 {
		t.Errorf("notes over a sweep with no expired op:\n%s\nwant Base's 10%% win at the same met SLO, and the schedule's met SLO", met)
	}

	edge[2].expired = 7
	missed := strings.Join(tieringNotes(archs, [][]tieringOutcome{sweep(47, 830), edge}), "\n")
	if strings.Contains(missed, "met SLO") {
		t.Errorf("notes claim a met SLO over expired cells:\n%s", missed)
	}
	for _, cell := range []string{"10% (47 ops)", "50% (830 ops)", "25% (7 ops)"} {
		if !strings.Contains(missed, cell) {
			t.Errorf("notes do not name the expired cell %s:\n%s", cell, missed)
		}
	}
}

func TestFigureRegistry(t *testing.T) {
	if len(Figures) != 20 {
		t.Fatalf("registered figures = %d", len(Figures))
	}
	seen := map[string]bool{}
	for _, f := range Figures {
		if f.ID == "" || f.Title == "" || f.Run == nil {
			t.Fatalf("malformed figure %+v", f)
		}
		if seen[f.ID] {
			t.Fatalf("duplicate figure id %q", f.ID)
		}
		seen[f.ID] = true
		if _, err := FigureByID(f.ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := FigureByID("nope"); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "x", Title: "T", Header: []string{"a", "bb"}}
	tab.AddRow(1, 2.5)
	tab.AddRow("s", int64(9))
	tab.Notes = append(tab.Notes, "n1")
	out := tab.String()
	for _, want := range []string{"== x: T ==", "a", "bb", "2.500", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestCatalogCellParallel: every architecture has worker lanes, on both
// applications — a catalog cell is a newCell mutation like a KV cell — so
// every cell runs at the configured parallelism, and its path counts one
// request per op with no tracer attached.
func TestCatalogCellParallel(t *testing.T) {
	o := FigOptions{Ops: 200, Warmup: 60, Keys: 200, Tables: 40, Parallelism: 4}
	o.applyDefaults()
	kv := workload.SyntheticConfig{Keys: o.Keys, Alpha: 1.2, ReadRatio: 0.9, ValueSize: 1 << 10, Seed: o.Seed}
	for arch := Base; arch < numArchs; arch++ {
		for app, c := range map[string]*figCell{"kv": o.synthCell(arch, kv), "catalog": o.unityCell(arch, ModeKV)} {
			res, err := o.runCell("", c)
			if err != nil {
				t.Fatalf("%v/%s: %v", arch, app, err)
			}
			if res.Parallelism != 4 || res.Path.Requests != int64(res.Ops) {
				t.Errorf("%v/%s: parallelism %d, %d requests counted over %d ops; want 4 lanes and one request per op",
					arch, app, res.Parallelism, res.Path.Requests, res.Ops)
			}
		}
	}
}
