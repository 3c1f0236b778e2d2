package workload

import (
	"math"
	"math/rand"
	"testing"
)

func TestZipfSamplerSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := NewZipfSampler(1000, 1.2, rng)
	counts := make([]int, 1000)
	const n = 100_000
	for i := 0; i < n; i++ {
		counts[z.Sample()]++
	}
	// Rank 0 must dominate and empirical frequency must track its mass.
	if counts[0] < counts[10] {
		t.Fatal("rank 0 should be most popular")
	}
	emp := float64(counts[0]) / n
	if math.Abs(emp-z.TopMass(1)) > 0.02 {
		t.Fatalf("empirical P(0)=%v vs analytic %v", emp, z.TopMass(1))
	}
}

func TestZipfSamplerLowAlpha(t *testing.T) {
	// alpha < 1 must work (math/rand's Zipf cannot do this).
	rng := rand.New(rand.NewSource(1))
	z := NewZipfSampler(100, 0.6, rng)
	seen := make(map[int]bool)
	for i := 0; i < 10_000; i++ {
		seen[z.Sample()] = true
	}
	if len(seen) < 90 {
		t.Fatalf("low-alpha sampler should reach most ranks, saw %d", len(seen))
	}
	// alpha = 0 is uniform.
	u := NewZipfSampler(10, 0, rng)
	if math.Abs(u.TopMass(1)-0.1) > 1e-9 || math.Abs(1-u.TopMass(9)-0.1) > 1e-9 {
		t.Fatal("alpha=0 should be uniform")
	}
}

func TestZipfTopMass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := NewZipfSampler(1000, 1.2, rng)
	if z.TopMass(0) != 0 || z.TopMass(1000) != 1 || z.TopMass(2000) != 1 {
		t.Fatal("TopMass boundaries broken")
	}
	if z.TopMass(100) <= z.TopMass(10) {
		t.Fatal("TopMass must increase with k")
	}
	if z.TopMass(10) < 0.4 {
		t.Fatalf("alpha=1.2: top-10 of 1000 should carry substantial mass, got %v", z.TopMass(10))
	}
}

func TestNormInv(t *testing.T) {
	cases := map[float64]float64{
		0.5:    0,
		0.8413: 1.0,
		0.1587: -1.0,
		0.9772: 2.0,
		0.999:  3.09,
	}
	for p, want := range cases {
		if got := normInv(p); math.Abs(got-want) > 0.01 {
			t.Errorf("normInv(%v) = %v, want %v", p, got, want)
		}
	}
	if !math.IsInf(normInv(0), -1) || !math.IsInf(normInv(1), 1) {
		t.Fatal("normInv boundaries")
	}
}

func TestLogNormalSize(t *testing.T) {
	// Median in, median out.
	if got := LogNormalSize(0.5, 23<<10, 1.2, 1, 1<<30); math.Abs(float64(got)-23*1024) > 100 {
		t.Fatalf("median size = %d", got)
	}
	// Clamping.
	if got := LogNormalSize(1e-9, 1000, 2, 64, 1<<20); got != 64 {
		t.Fatalf("min clamp = %d", got)
	}
	if got := LogNormalSize(1-1e-9, 1000, 2, 64, 1<<20); got != 1<<20 {
		t.Fatalf("max clamp = %d", got)
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := NewSynthetic(SyntheticConfig{Seed: 7})
	b := NewSynthetic(SyntheticConfig{Seed: 7})
	for i := 0; i < 1000; i++ {
		oa, ob := a.Next(), b.Next()
		if oa != ob {
			t.Fatalf("divergence at %d: %+v vs %+v", i, oa, ob)
		}
	}
	c := NewSynthetic(SyntheticConfig{Seed: 8})
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 900 {
		t.Fatal("different seeds should produce different streams")
	}
}

func TestSyntheticReadRatio(t *testing.T) {
	for _, r := range []float64{0.5, 0.9, 0.99} {
		g := NewSynthetic(SyntheticConfig{ReadRatio: r, Seed: 3})
		st := Analyze(g, 20_000)
		if math.Abs(st.ReadRatio()-r) > 0.02 {
			t.Fatalf("read ratio %v observed %v", r, st.ReadRatio())
		}
	}
}

func TestSyntheticValueSize(t *testing.T) {
	g := NewSynthetic(SyntheticConfig{ValueSize: 1 << 20, Seed: 2})
	op := g.Next()
	if op.ValueSize != 1<<20 {
		t.Fatalf("value size = %d", op.ValueSize)
	}
}

func TestMetaKVShape(t *testing.T) {
	g := NewMetaKV(MetaKVConfig{Seed: 5})
	st := Analyze(g, 50_000)
	// ~30% writes.
	if w := 1 - st.ReadRatio(); math.Abs(w-0.30) > 0.02 {
		t.Fatalf("write ratio = %v, want ~0.30", w)
	}
	// Median value ~10 bytes.
	if st.SizeP50 < 4 || st.SizeP50 > 25 {
		t.Fatalf("median size = %d, want ~10", st.SizeP50)
	}
	// Deterministic sizes per key.
	g2 := NewMetaKV(MetaKVConfig{Seed: 99})
	sizes := make(map[string]int)
	for i := 0; i < 20_000; i++ {
		op := g2.Next()
		if prev, ok := sizes[op.Key]; ok && prev != op.ValueSize {
			t.Fatalf("key %s size changed %d -> %d", op.Key, prev, op.ValueSize)
		}
		sizes[op.Key] = op.ValueSize
	}
}

func TestUnityShape(t *testing.T) {
	g := NewUnity(UnityConfig{Seed: 5})
	st := Analyze(g, 50_000)
	// ~93% reads.
	if math.Abs(st.ReadRatio()-0.93) > 0.02 {
		t.Fatalf("read ratio = %v, want ~0.93", st.ReadRatio())
	}
	// Median ~23KB, heavy tail.
	if st.SizeP50 < 10<<10 || st.SizeP50 > 50<<10 {
		t.Fatalf("median = %d, want ~23KB", st.SizeP50)
	}
	if st.SizeP99 < 100<<10 {
		t.Fatalf("p99 = %d, want heavy tail", st.SizeP99)
	}
	if st.SizeMax <= st.SizeP99 {
		t.Fatal("max should exceed p99")
	}
	// Skewed access (Figure 3b): top 10 tables carry a visible share.
	if st.TopKShare(10) < 0.05 {
		t.Fatalf("top-10 share = %v; expected skew", st.TopKShare(10))
	}
}

func TestAnalyzeCounts(t *testing.T) {
	g := NewSynthetic(SyntheticConfig{Keys: 100, Seed: 1})
	st := Analyze(g, 5000)
	if st.Ops != 5000 || st.Reads+st.Writes != 5000 {
		t.Fatalf("ops accounting: %+v", st)
	}
	if st.UniqueKeys == 0 || st.UniqueKeys > 100 {
		t.Fatalf("unique keys = %d", st.UniqueKeys)
	}
	total := 0
	for _, c := range st.AccessCounts {
		total += c
	}
	if total != 5000 {
		t.Fatalf("access counts sum to %d", total)
	}
	for i := 1; i < len(st.AccessCounts); i++ {
		if st.AccessCounts[i-1] < st.AccessCounts[i] {
			t.Fatal("access counts must be sorted descending")
		}
	}
	if st.String() == "" {
		t.Fatal("String should render")
	}
}

func TestKeyNameStable(t *testing.T) {
	if KeyName(42) != "key-00000042" {
		t.Fatalf("KeyName = %q", KeyName(42))
	}
}

func BenchmarkSyntheticNext(b *testing.B) {
	g := NewSynthetic(SyntheticConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// A flip must (a) leave the pre-flip stream byte-identical to the
// unflipped stream, (b) change the hot set afterwards, (c) preserve the
// population and mix.
func TestSyntheticPopularityFlip(t *testing.T) {
	base := NewSynthetic(SyntheticConfig{Keys: 2000, Seed: 7})
	flip := NewSynthetic(SyntheticConfig{Keys: 2000, Seed: 7, FlipAt: 500})
	hotBefore := map[string]int{}
	for i := 0; i < 500; i++ {
		a, b := base.Next(), flip.Next()
		if a != b {
			t.Fatalf("op %d diverges before the flip: %+v vs %+v", i, a, b)
		}
		hotBefore[b.Key]++
	}
	hotAfter := map[string]int{}
	diverged := false
	for i := 0; i < 500; i++ {
		a, b := base.Next(), flip.Next()
		if a.Kind != b.Kind {
			t.Fatalf("op %d: flip changed the read/write mix", 500+i)
		}
		if a.Key != b.Key {
			diverged = true
		}
		hotAfter[b.Key]++
	}
	if !diverged {
		t.Fatal("streams identical after the flip")
	}
	top := func(m map[string]int) string {
		best, n := "", 0
		for k, c := range m {
			if c > n || (c == n && k < best) {
				best, n = k, c
			}
		}
		return best
	}
	if top(hotBefore) == top(hotAfter) {
		t.Fatalf("hottest key %q unchanged by the flip", top(hotBefore))
	}
}
