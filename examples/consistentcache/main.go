// Consistent-cache example: the paper's §5.5 and §6 in action.
//
//  1. A Linked+Version deployment: every read revalidates against storage
//     — linearizable, but the per-read check hands back most of the
//     linked cache's cost advantage.
//
//  2. The ownership-based design: the shard map grants the cache
//     strong ownership, so reads skip the check entirely while staying
//     linearizable.
//
//  3. The Figure 8 delayed-writes anomaly, and the write-fencing fix.
//
//     go run ./examples/consistentcache
package main

import (
	"fmt"
	"log"

	"cachecost/internal/consistency"
	"cachecost/internal/core"
	"cachecost/internal/meter"
	"cachecost/internal/workload"
)

func main() {
	fmt.Println("== The price of a version check ==")
	for _, arch := range []core.Arch{core.Linked, core.LinkedVersion, core.LinkedOwned} {
		m := meter.NewMeter()
		gen := workload.NewSynthetic(workload.SyntheticConfig{
			Keys: 800, Alpha: 1.2, ReadRatio: 0.95, ValueSize: 4096,
		})
		svc, err := core.BuildKVService(core.ServiceConfig{
			Arch:              arch,
			Meter:             m,
			AppCacheBytes:     2 << 20,
			StorageCacheBytes: 1 << 20,
		}, gen)
		if err != nil {
			log.Fatal(err)
		}
		res, err := core.RunExperiment(svc, m, gen, 400, 1500, meter.GCP)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16v $%.6f per 1M requests  (storage share %.0f%%)\n",
			arch, res.CostPerMReq, 100*res.StorageCost/res.Report.TotalCost)
	}
	fmt.Println()

	fmt.Println("== The delayed-writes problem (Figure 8) ==")
	unfenced := consistency.RunDelayedWriteScenario(false)
	fmt.Printf("without fencing: %s\n", unfenced)
	fenced := consistency.RunDelayedWriteScenario(true)
	fmt.Printf("with fencing:    %s\n", fenced)
	fmt.Println()
	if unfenced.Stale && !fenced.Stale {
		fmt.Println("A write delayed across a reshard silently corrupts an ownership cache;")
		fmt.Println("fencing tokens let storage reject the straggler and keep cache == storage.")
	}
}
