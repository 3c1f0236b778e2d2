package core

import (
	"fmt"

	"cachecost/internal/workload"
)

// defaultBatchSizes is the batch figure's sweep when FigOptions does not
// override it.
var defaultBatchSizes = []int{1, 2, 4, 8, 16, 32}

// FigBatch measures the cost of multi-key batching: cost per op across
// architectures as the client batch size B grows. Batching amortizes
// exactly the per-message overheads the paper's model says dominate
// remote reads (§2.3) — RPC framing, (de)serialization, and the storage
// SQL front-end — so the architectures that pay those per key at B=1
// (Base's per-statement front-end above all, then Remote's cache RPCs)
// fall steeply with B, while Linked, whose hits never cross a wire, has
// the least overhead to amortize and keeps its absolute lead.
func FigBatch(o FigOptions) (*Table, error) {
	o.applyDefaults()
	sizes := o.BatchSizes
	if len(sizes) == 0 {
		sizes = defaultBatchSizes
	}
	t := &Table{
		ID:     "batch",
		Title:  "Cost vs multi-key batch size (synthetic, 1KB values, r=90%)",
		Header: []string{"arch", "B", "$/Mreq", "p99_ms", "hit_ratio", "vs_B1"},
	}
	cfg := workload.SyntheticConfig{Keys: o.Keys, Alpha: 1.2, ReadRatio: 0.9, ValueSize: 1 << 10, Seed: o.Seed}
	for _, arch := range Archs {
		var b1 float64
		for _, b := range sizes {
			// The default cell driven with BatchSize = b: B point ops share
			// one client request, one front-door frame and one fan-out
			// through the cache hierarchy. Cost stays normalized per op, so
			// cells are directly comparable across B.
			c := o.synthCell(arch, cfg)
			c.run.BatchSize = b
			res, err := o.runCell(fmt.Sprintf("batch/%s/B=%d", arch, b), c)
			if err != nil {
				return nil, err
			}
			if b1 == 0 {
				b1 = res.CostPerMReq
			}
			t.AddRow(arch.String(), b, res.CostPerMReq,
				float64(res.LatencyP99.Microseconds())/1000, res.HitRatio, res.CostPerMReq/b1)
		}
	}
	t.Notes = append(t.Notes,
		"one batch = one client request: framing, (de)serialization and the SQL front-end are paid per batch, not per key",
		"the wire-crossing architectures gain the most: Base amortizes the per-statement SQL front-end, Remote its cache RPCs; Linked hits have no wire overhead to amortize, so it keeps the lowest absolute cost")
	return t, nil
}
