package workload

import (
	"math/rand"
)

// SyntheticConfig parameterizes the §5.2 synthetic workload.
type SyntheticConfig struct {
	// Keys is the population size. Default 100_000 (the paper's 100K).
	Keys int
	// Alpha is the Zipfian skew. Default 1.2.
	Alpha float64
	// ReadRatio is the fraction of reads in [0,1]. Default 0.9.
	ReadRatio float64
	// ValueSize is the fixed value size in bytes. Default 1024.
	ValueSize int
	// Seed makes the stream deterministic. Default 1.
	Seed int64
	// FlipAt, when > 0, flips key popularity after that many drawn ops:
	// the rank→key permutation is swapped for an independent one, so the
	// keys that were hottest become (with overwhelming probability) cold
	// and a fresh set becomes hot, while the population, skew and
	// read/write mix stay identical. This is the workload event dynamic
	// shard management exists to absorb — a product launch or viral
	// object shifting the heavy hitters under a running service. Ops
	// before the flip are byte-identical to a FlipAt=0 stream with the
	// same seed.
	FlipAt int
}

func (c *SyntheticConfig) applyDefaults() {
	if c.Keys <= 0 {
		c.Keys = 100_000
	}
	if c.Alpha == 0 {
		c.Alpha = 1.2
	}
	if c.ReadRatio == 0 {
		c.ReadRatio = 0.9
	}
	if c.ValueSize <= 0 {
		c.ValueSize = 1024
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Synthetic is the fixed-size Zipfian generator.
type Synthetic struct {
	cfg   SyntheticConfig
	rng   *rand.Rand
	zipf  *ZipfSampler
	perm  []int
	perm2 []int // post-flip permutation (nil when FlipAt == 0)
	drawn int
}

// NewSynthetic builds the generator.
func NewSynthetic(cfg SyntheticConfig) *Synthetic {
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &Synthetic{
		cfg:  cfg,
		rng:  rng,
		zipf: NewZipfSampler(cfg.Keys, cfg.Alpha, rng),
		perm: permute(cfg.Keys, rng),
	}
	if cfg.FlipAt > 0 {
		// The flipped permutation comes from a rng independent of the
		// op-stream rng, so the pre-flip stream is identical to the
		// unflipped stream with the same seed — the flip is the ONLY
		// difference between the two experiments.
		s.perm2 = permute(cfg.Keys, rand.New(rand.NewSource(cfg.Seed^0x9e3779b9)))
	}
	return s
}

// Name implements Generator.
func (s *Synthetic) Name() string { return "synthetic" }

// Next implements Generator.
func (s *Synthetic) Next() Op {
	rank := s.zipf.Sample()
	kind := Write
	if s.rng.Float64() < s.cfg.ReadRatio {
		kind = Read
	}
	perm := s.perm
	if s.perm2 != nil && s.drawn >= s.cfg.FlipAt {
		perm = s.perm2
	}
	s.drawn++
	return Op{Kind: kind, Key: KeyName(perm[rank]), ValueSize: s.cfg.ValueSize}
}

// Keys returns the population size.
func (s *Synthetic) Keys() int { return s.cfg.Keys }

// ValueSize returns the configured value size.
func (s *Synthetic) ValueSize() int { return s.cfg.ValueSize }

// MetaKVConfig parameterizes the Meta-like trace: classic key-value
// accesses with tiny values (median ≈10 bytes [1,7]) and ≈30% writes.
type MetaKVConfig struct {
	Keys int   // default 100_000
	Seed int64 // default 1
}

const (
	// metaWriteRatio is the Meta trace's write share, per the paper.
	metaWriteRatio = 0.30
	// metaAlpha is its Zipf skew: production key-value traces are skewed
	// but less extreme than the synthetic sweep.
	metaAlpha = 0.9
)

// MetaKV generates the Meta-like trace.
type MetaKV struct {
	cfg  MetaKVConfig
	rng  *rand.Rand
	zipf *ZipfSampler
	perm []int
}

// NewMetaKV builds the generator.
func NewMetaKV(cfg MetaKVConfig) *MetaKV {
	if cfg.Keys <= 0 {
		cfg.Keys = 100_000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &MetaKV{
		cfg:  cfg,
		rng:  rng,
		zipf: NewZipfSampler(cfg.Keys, metaAlpha, rng),
		perm: permute(cfg.Keys, rng),
	}
}

// Name implements Generator.
func (m *MetaKV) Name() string { return "meta-kv" }

// MetaValueSize returns the deterministic value size for a key rank:
// lognormal with a 10-byte median and a modest tail (values are tiny in
// the Meta trace; tail capped at 4 KiB).
func MetaValueSize(rank int) int {
	return LogNormalSize(hashUnit(rank), 10, 1.0, 1, 4<<10)
}

// Next implements Generator.
func (m *MetaKV) Next() Op {
	rank := m.zipf.Sample()
	kind := Read
	if m.rng.Float64() < metaWriteRatio {
		kind = Write
	}
	keyID := m.perm[rank]
	return Op{Kind: kind, Key: KeyName(keyID), ValueSize: MetaValueSize(keyID)}
}

// Keys returns the population size.
func (m *MetaKV) Keys() int { return m.cfg.Keys }

// UnityConfig parameterizes the Unity-Catalog-like trace (§5.2, Figure 3):
// read-heavy (≈93%), ≈23KB median values with large tails, Zipfian access
// skew over governed tables; getTable dominates.
type UnityConfig struct {
	// Tables is the number of governed tables. Default 20_000.
	Tables int
	// Seed defaults to 1.
	Seed int64
}

const (
	// unityReadRatio is the Unity Catalog trace's read share.
	unityReadRatio = 0.93
	// unityAlpha is its Zipf skew (Figure 3b shows strong skew).
	unityAlpha = 1.05
)

// Unity generates the Unity-Catalog-like trace.
type Unity struct {
	cfg  UnityConfig
	rng  *rand.Rand
	zipf *ZipfSampler
	perm []int
}

// NewUnity builds the generator.
func NewUnity(cfg UnityConfig) *Unity {
	if cfg.Tables <= 0 {
		cfg.Tables = 20_000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &Unity{
		cfg:  cfg,
		rng:  rng,
		zipf: NewZipfSampler(cfg.Tables, unityAlpha, rng),
		perm: permute(cfg.Tables, rng),
	}
}

// Name implements Generator.
func (u *Unity) Name() string { return "unity-catalog" }

// UnityValueSize returns the deterministic materialized-object size for a
// table id: lognormal with a 23 KiB median and a heavy tail up to 4 MiB,
// floored at 256 bytes (Figure 3a).
func UnityValueSize(tableID int) int {
	return LogNormalSize(hashUnit(tableID), 23<<10, 1.2, 256, 4<<20)
}

// Next implements Generator. Keys are table identifiers; the catalog
// application maps them to getTable calls.
func (u *Unity) Next() Op {
	rank := u.zipf.Sample()
	kind := Write
	if u.rng.Float64() < unityReadRatio {
		kind = Read
	}
	tableID := u.perm[rank]
	return Op{Kind: kind, Key: KeyName(tableID), ValueSize: UnityValueSize(tableID)}
}
