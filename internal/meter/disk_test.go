package meter

import (
	"testing"
	"time"
)

// The durable storage engine reports its file footprint through
// Component.AddDiskBytes; the report must price it at the
// book's storage rate, include it in totals, and amortize it like
// memory rent in the per-request figure.
func TestReportPricesDiskBytes(t *testing.T) {
	m := NewMeter()
	kv := m.Component("storage.kv")
	kv.AddBusy(10 * time.Millisecond)
	kv.SetMemBytes(1 << 30)
	kv.AddDiskBytes(50 << 30) // 50 GB on disk
	kv.AddDiskBytes(50 << 30) // plus a 50 GB delta from a second store
	if got := kv.DiskBytes(); got != 100<<30 {
		t.Fatalf("DiskBytes = %d, want %d", got, int64(100<<30))
	}
	m.AddRequests(1000)

	r := BuildReport(m, GCP)
	line := r.Lines[0]
	if line.Component != "storage.kv" {
		t.Fatalf("unexpected line %q", line.Component)
	}
	almost(t, "DiskGB", line.DiskGB, 100)
	almost(t, "DiskCost", line.DiskCost, 100*GCP.StorageGBMonth) // $2 at $2/100GB-mo
	almost(t, "Line.Total", line.total(), line.CPUCost+line.MemCost+line.DiskCost)
	almost(t, "Report.DiskCost", r.DiskCost, line.DiskCost)
	almost(t, "Report.TotalCost", r.TotalCost, r.CPUCost+r.MemCost+r.DiskCost)

	// Per-request normalization: disk rent divides by throughput exactly
	// like memory rent.
	qps := r.qps()
	const secondsPerMonth = 30 * 24 * 3600
	want := (r.CPUCost/(qps*secondsPerMonth) + (r.MemCost+r.DiskCost)/(qps*secondsPerMonth)) * 1e6
	almost(t, "CostPerMillionRequests", r.CostPerMillionRequests(), want)
	if r.CostPerMillionRequests() <= (r.CPUCost/(qps*secondsPerMonth)+r.MemCost/(qps*secondsPerMonth))*1e6 {
		t.Fatal("disk rent must raise the per-request cost")
	}

	// Snapshot carries the footprint.
	snap := m.Snapshot()
	if snap[0].DiskBytes != 100<<30 {
		t.Fatalf("snapshot DiskBytes = %d", snap[0].DiskBytes)
	}
}
