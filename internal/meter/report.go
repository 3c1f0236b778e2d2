package meter

import (
	"fmt"
	"strings"
	"time"
)

// Line is one component's priced usage in a Report.
type Line struct {
	Component string
	Cores     float64 // equivalent fully-busy cores over the window
	MemGB     float64 // provisioned DRAM, time-averaged over the window
	DiskGB    float64 // persistent-storage footprint
	CPUCost   float64 // $/month
	MemCost   float64 // $/month
	DiskCost  float64 // $/month
	Ops       int64
}

// total returns the line's combined monthly cost.
func (l Line) total() float64 { return l.CPUCost + l.MemCost + l.DiskCost }

// Report is a priced summary of a Meter over its elapsed window.
type Report struct {
	Prices    PriceBook
	Elapsed   time.Duration
	Requests  int64
	Lines     []Line
	CPUCost   float64 // $/month, all components
	MemCost   float64 // $/month, all components
	DiskCost  float64 // $/month, all components (persistent storage rent)
	TotalCost float64 // CPUCost + MemCost + DiskCost

	// LaneQPS, when set (> 0), is the single-lane request rate — the
	// throughput one closed-loop worker sustains (1/mean latency). A
	// concurrent driver sets it so memory amortization stays comparable
	// to a single-threaded run: CPU cost per request is elapsed-invariant
	// (busy/requests), but provisioned-memory cost per request divides a
	// monthly rent by throughput, and a driver that packs N workers onto
	// the same cores compresses elapsed without representing a larger
	// deployment. Zero means "use aggregate QPS" (the single-threaded
	// behaviour, unchanged).
	LaneQPS float64
}

// BuildReport prices a meter's current snapshot.
func BuildReport(m *Meter, prices PriceBook) Report {
	elapsed := m.Elapsed()
	snaps := m.Snapshot()
	r := Report{
		Prices:   prices,
		Elapsed:  elapsed,
		Requests: m.Requests(),
	}
	for _, s := range snaps {
		cores := s.Cores(elapsed)
		// Memory rent prices the provision's time-average over the
		// window: for a fixed budget this is the budget itself, while an
		// elastically resized cache is billed the byte-seconds it held —
		// the whole point of shrinking off-peak.
		line := Line{
			Component: s.Name,
			Cores:     cores,
			MemGB:     float64(s.MemAvgBytes) / float64(1<<30),
			DiskGB:    float64(s.DiskBytes) / float64(1<<30),
			CPUCost:   prices.CPUCost(cores),
			MemCost:   prices.MemCost(s.MemAvgBytes),
			DiskCost:  prices.StorageCost(s.DiskBytes),
			Ops:       s.Ops,
		}
		r.Lines = append(r.Lines, line)
		r.CPUCost += line.CPUCost
		r.MemCost += line.MemCost
		r.DiskCost += line.DiskCost
	}
	r.TotalCost = r.CPUCost + r.MemCost + r.DiskCost
	return r
}

// qps returns the observed request throughput.
func (r Report) qps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// CostPerMillionRequests normalizes total cost by observed throughput:
// the monthly cost divided by the monthly request volume, times 1e6.
// It is the scale-free unit used to compare architectures, because a
// deployment is sized to its offered load.
func (r Report) CostPerMillionRequests() float64 {
	qps := r.qps()
	if qps == 0 {
		return 0
	}
	const secondsPerMonth = 30 * 24 * 3600
	memQPS := qps
	if r.LaneQPS > 0 {
		memQPS = r.LaneQPS
	}
	// Disk rent amortizes like memory rent: both are provisioned levels
	// whose monthly bill divides by the deployment's request rate, so the
	// single-lane normalization applies to both.
	return (r.CPUCost/(qps*secondsPerMonth) + (r.MemCost+r.DiskCost)/(memQPS*secondsPerMonth)) * 1e6
}

// MemFraction returns provisioned-memory cost as a fraction of total cost.
// The paper reports 6–22% for Linked and 1–5% for Base (§5.3).
func (r Report) MemFraction() float64 {
	if r.TotalCost == 0 {
		return 0
	}
	return r.MemCost / r.TotalCost
}

// ComponentCost returns the summed monthly cost of every line whose
// component name equals prefix or starts with prefix+".". The empty
// prefix matches every line.
func (r Report) ComponentCost(prefix string) float64 {
	var sum float64
	for _, l := range r.Lines {
		if prefix == "" || l.Component == prefix || strings.HasPrefix(l.Component, prefix+".") {
			sum += l.total()
		}
	}
	return sum
}

// ComponentCores returns the summed cores of every line under prefix,
// following the same hierarchy rule as ComponentCost.
func (r Report) ComponentCores(prefix string) float64 {
	var sum float64
	for _, l := range r.Lines {
		if prefix == "" || l.Component == prefix || strings.HasPrefix(l.Component, prefix+".") {
			sum += l.Cores
		}
	}
	return sum
}

// String renders the report as an aligned text table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "elapsed=%v requests=%d qps=%.0f prices[%s]\n",
		r.Elapsed.Round(time.Millisecond), r.Requests, r.qps(), r.Prices)
	fmt.Fprintf(&b, "%-24s %10s %10s %10s %12s %12s %12s %12s\n",
		"component", "cores", "memGB", "diskGB", "cpu$/mo", "mem$/mo", "disk$/mo", "total$/mo")
	for _, l := range r.Lines {
		fmt.Fprintf(&b, "%-24s %10.4f %10.4f %10.4f %12.4f %12.4f %12.4f %12.4f\n",
			l.Component, l.Cores, l.MemGB, l.DiskGB, l.CPUCost, l.MemCost, l.DiskCost, l.total())
	}
	fmt.Fprintf(&b, "%-24s %10.4f %10s %10s %12.4f %12.4f %12.4f %12.4f\n",
		"TOTAL", r.ComponentCores(""), "", "", r.CPUCost, r.MemCost, r.DiskCost, r.TotalCost)
	fmt.Fprintf(&b, "cost per 1M requests: $%.6f  (memory fraction %.1f%%)\n",
		r.CostPerMillionRequests(), 100*r.MemFraction())
	return b.String()
}
