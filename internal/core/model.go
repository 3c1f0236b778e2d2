package core

import (
	"math"
	"math/rand"

	"cachecost/internal/meter"
	"cachecost/internal/workload"
)

// Model is the paper's §4 theoretical cost model:
//
//	T = QPS · ( MR(s_A)·c_A + MR(s_A+s_D)·c_D ) + c_M · ( s_A·N_r + s_D )
//
// where s_A is linked-cache bytes per app server, s_D storage-cache
// bytes, MR the miss-ratio curve, c_A the CPU cost a linked-cache miss
// incurs per request (query issue, RPC, storage front-end), c_D the
// additional CPU cost when the storage cache also misses (the disk
// path), N_r the number of cache replicas and c_M the memory price.
type Model struct {
	// QPS is the offered load.
	QPS float64
	// CASeconds is c_A in CPU-seconds per linked-cache miss.
	CASeconds float64
	// CDSeconds is c_D in CPU-seconds per storage-cache miss.
	CDSeconds float64
	// Replicas is N_r, the replication of the linked cache.
	Replicas float64
	// Prices converts cores and bytes to dollars.
	Prices meter.PriceBook
	// MR maps cache bytes to miss ratio. Must be non-increasing.
	MR func(bytes float64) float64
}

// DefaultModel returns the calibration used by the Figure 2 reproduction:
// 1M keys of 10 KiB (a 10 GiB working set), Zipf α, 40K QPS (the Unity
// Catalog load §5.2), c_A = 250µs per linked-cache miss (SQL front-end,
// RPC, query execution) and c_D = 1ms per storage-cache miss (the disk
// path) — magnitudes consistent with the measured per-request CPU of the
// simulated testbed and with SQL stores spending most cycles on query
// processing (§5.3).
func DefaultModel(alpha float64) Model {
	return Model{
		QPS:       40_000,
		CASeconds: 250e-6,
		CDSeconds: 1000e-6,
		Replicas:  1,
		Prices:    meter.GCP,
		MR:        zipfMR(1_000_000, alpha, 10<<10),
	}
}

// zipfMR returns the analytic LRU miss-ratio curve for a Zipfian
// workload of n keys with fixed value size: a cache of s bytes holds the
// top s/valueSize keys, so MR(s) = 1 - mass(top-k). For Zipfian
// popularity LRU closely tracks this perfect-frequency curve.
func zipfMR(n int, alpha float64, valueSize int) func(bytes float64) float64 {
	z := workload.NewZipfSampler(n, alpha, rand.New(rand.NewSource(1)))
	return func(bytes float64) float64 {
		k := int(bytes / float64(valueSize))
		return 1 - z.TopMass(k)
	}
}

// TotalCost evaluates T at (s_A, s_D), in dollars per month.
func (m Model) TotalCost(sA, sD float64) float64 {
	cores := m.QPS * (m.MR(sA)*m.CASeconds + m.MR(sA+sD)*m.CDSeconds)
	memBytes := sA*m.Replicas + sD
	return m.Prices.CPUCost(cores) + m.Prices.MemCost(int64(memBytes))
}

// CostSaving returns T_base / T_linked: the factor by which a Linked
// deployment (sA bytes of app cache on top of sD of storage cache) is
// cheaper than a Base deployment (no app cache, sDBase of storage cache).
func (m Model) CostSaving(sA, sD, sDBase float64) float64 {
	base := m.TotalCost(0, sDBase)
	linked := m.TotalCost(sA, sD)
	if linked == 0 {
		return math.Inf(1)
	}
	return base / linked
}

// derivStep is the step used for numerical marginals: 64 MiB, small
// against the GB-scale caches the model sweeps.
const derivStep = 64 << 20

// MarginalA returns ∂T/∂s_A at (s_A, s_D) in dollars per byte.
func (m Model) MarginalA(sA, sD float64) float64 {
	return (m.TotalCost(sA+derivStep, sD) - m.TotalCost(sA, sD)) / derivStep
}

// MarginalD returns ∂T/∂s_D at (s_A, s_D) in dollars per byte.
func (m Model) MarginalD(sA, sD float64) float64 {
	return (m.TotalCost(sA, sD+derivStep) - m.TotalCost(sA, sD)) / derivStep
}

// OptimalSA returns the s_A in [0, maxSA] minimizing T with s_D fixed —
// the paper's takeaway that the best allocation uses as much linked
// cache as possible, up to where the marginal benefit of cache equals
// the marginal cost of memory (|∂T/∂s_A| = 0).
func (m Model) OptimalSA(sD, maxSA float64) float64 {
	const steps = 512
	best, bestCost := 0.0, math.Inf(1)
	for i := 0; i <= steps; i++ {
		sA := maxSA * float64(i) / steps
		if c := m.TotalCost(sA, sD); c < bestCost {
			best, bestCost = sA, c
		}
	}
	return best
}
