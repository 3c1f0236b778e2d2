package meter_test

import (
	"fmt"
	"time"

	"cachecost/internal/meter"
)

// ExampleBuildReport shows the paper's costing methodology end to end:
// attribute busy CPU and provisioned DRAM to components, then price them.
func ExampleBuildReport() {
	m := meter.NewMeter()

	app := m.Component("app")
	app.AddBusy(250 * time.Millisecond) // measured busy CPU
	cache := m.Component("app.cache")
	cache.SetMemBytes(6 << 30) // 6 GiB linked cache, the paper's app server

	r := meter.BuildReport(m, meter.GCP)
	fmt.Printf("memory cost: $%.2f/month\n", r.MemCost)
	fmt.Printf("app cache share of components: %d lines\n", len(r.Lines))
	// Output:
	// memory cost: $12.00/month
	// app cache share of components: 2 lines
}

// ExamplePriceBook prices raw resource quantities at GCP list prices.
func ExamplePriceBook() {
	fmt.Printf("1 core for a month: $%.0f\n", meter.GCP.CPUCost(1))
	fmt.Printf("8 GiB for a month:  $%.0f\n", meter.GCP.MemCost(8<<30))
	fmt.Printf("100 GiB of disk:    $%.0f\n", meter.GCP.StorageCost(100<<30))
	// Output:
	// 1 core for a month: $17
	// 8 GiB for a month:  $16
	// 100 GiB of disk:    $2
}

// ExampleComponent_Start shows metering one operation of code that has no
// request lane to lap.
func ExampleComponent_Start() {
	m := meter.NewMeter()
	app := m.Component("app")

	sw := app.Start()
	// ... the operation's CPU work ...
	sw.Stop()

	fmt.Println(m.Snapshot()[0].Ops)
	// Output:
	// 1
}
