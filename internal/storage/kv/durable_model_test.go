package kv

import (
	"fmt"
	"math/rand"
	"testing"
)

// dumpStore reads the full logical contents of the store via Scan.
func dumpStore(s *Store) map[string]string {
	out := make(map[string]string)
	for _, it := range s.Scan(nil, nil) {
		out[string(it.Key)] = string(it.Value)
	}
	return out
}

func mapsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// TestDurableModel drives the durable engine with random puts and gets
// against a map oracle, interleaving forced flushes, full
// compactions, clean close/reopen cycles and simulated crashes. After a
// clean reopen the store must match the oracle exactly. After a crash
// it must match the oracle as of SOME prefix of the operations issued
// since the last acknowledged Sync — never a state that interleaves or
// invents writes. Run under -race in CI.
func TestDurableModel(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runDurableModel(t, seed)
		})
	}
}

func runDurableModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fs := NewMemFS()
	cfg := Config{
		CacheBytes:    512,  // small DRAM tier: force demotion traffic
		MemtableBytes: 8192, // small memtable: force organic flushes
		WALSyncEvery:  4,    // group commit: leave unacked tails to tear
		CompactAt:     3,
	}
	open := func() *Store {
		c := cfg
		c.FS = fs
		s, err := Open(c)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return s
	}
	s := open()
	defer func() { s.Close() }()

	var totalFlushes, totalDemotions int64 // cumulative across reopens
	harvest := func() {
		st := s.Stats()
		totalFlushes += st.Flushes
		totalDemotions += st.TierDemotions
	}

	oracle := make(map[string]string) // state as of the last op
	// Snapshots of the oracle at every op since the last Sync barrier,
	// oldest first; snapshots[0] is the state at the barrier itself.
	snapshots := []map[string]string{cloneMap(oracle)}
	syncAll := func() {
		if err := s.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		snapshots = []map[string]string{cloneMap(oracle)}
	}

	const ops = 2500
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(100); {
		case r < 65: // put
			key, val := fmt.Sprintf("k%03d", rng.Intn(400)), fmt.Sprintf("v%d.%d", seed, i)
			s.Put([]byte(key), []byte(val))
			oracle[key] = val
			snapshots = append(snapshots, cloneMap(oracle))
		case r < 85: // get
			key := fmt.Sprintf("k%03d", rng.Intn(400))
			val, _, ok := s.Get([]byte(key))
			want, wantOK := oracle[key]
			if ok != wantOK || (ok && string(val) != want) {
				t.Fatalf("op %d: Get(%s) = %q,%v, oracle %q,%v", i, key, val, ok, want, wantOK)
			}
		case r < 90: // forced flush
			flush(s)
		case r < 93: // full compaction + tier-gauge invariant
			s.Compact()
			checkTierGauge(t, s)
		case r < 97: // clean close + reopen: nothing may be lost
			syncAll()
			harvest()
			if err := s.Close(); err != nil {
				t.Fatalf("op %d: Close: %v", i, err)
			}
			s = open()
			if got := dumpStore(s); !mapsEqual(got, oracle) {
				t.Fatalf("op %d: reopen diverged from oracle: %d vs %d keys", i, len(got), len(oracle))
			}
		default: // crash: state must be a prefix of unacked ops
			harvest()
			fs.Crash(seed*1000 + int64(i))
			s = open()
			got := dumpStore(s)
			match := -1
			for j := len(snapshots) - 1; j >= 0; j-- {
				if mapsEqual(got, snapshots[j]) {
					match = j
					break
				}
			}
			if match < 0 {
				t.Fatalf("op %d: post-crash state matches no op prefix since last sync (%d candidates, %d keys recovered)",
					i, len(snapshots), len(got))
			}
			// The recovered prefix is now the truth; resynchronize.
			oracle = cloneMap(snapshots[match])
			snapshots = []map[string]string{cloneMap(oracle)}
		}
	}

	// Final barrier + reopen: everything synced must survive verbatim.
	syncAll()
	harvest()
	if err := s.Close(); err != nil {
		t.Fatalf("final Close: %v", err)
	}
	s = open()
	if got := dumpStore(s); !mapsEqual(got, oracle) {
		t.Fatalf("final reopen diverged: got %d keys, want %d", len(got), len(oracle))
	}
	s.Compact()
	checkTierGauge(t, s)
	harvest()
	if totalFlushes == 0 || totalDemotions == 0 {
		t.Fatalf("model run never exercised tiering or flushes: flushes=%d demotions=%d",
			totalFlushes, totalDemotions)
	}
}

// checkTierGauge asserts the invariant the issue pins: after a full
// compaction, the disk tier's live-byte gauge equals the summed size of
// live entries exactly.
func checkTierGauge(t *testing.T, s *Store) {
	t.Helper()
	_, diskLive := s.TierBytes()
	var want int64
	for _, it := range s.Scan(nil, nil) {
		want += int64(len(it.Key) + len(it.Value))
	}
	if diskLive != want {
		t.Fatalf("tier gauge invariant broken: disk live %d, sum of live entries %d", diskLive, want)
	}
}

func cloneMap(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
