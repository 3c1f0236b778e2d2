package core

import (
	"bytes"
	"sync"
	"testing"

	"cachecost/internal/meter"
	"cachecost/internal/trace"
	"cachecost/internal/workload"
)

// TestTierCapabilities pins which optional protocols each architecture's
// tier declares. A capability a tier picks up by accident — through an
// embedded helper, say — is a silent policy change: a batched read on a
// consistency design would bypass its cache, and the scalar-equivalence
// tests cannot see it because storage returns the same values.
func TestTierCapabilities(t *testing.T) {
	type caps struct{ batchRead, batchDrop, peek, writeThrough bool }
	want := map[Arch]caps{
		Base:          {batchRead: true},
		Remote:        {batchRead: true, batchDrop: true, peek: true},
		Linked:        {batchRead: true, peek: true, writeThrough: true},
		LinkedVersion: {},
		LinkedOwned:   {writeThrough: true},
		LinkedTTL:     {writeThrough: true},
	}
	for arch := Base; arch < numArchs; arch++ {
		t.Run(arch.String(), func(t *testing.T) {
			svc, err := NewKVService(smallCfg(arch, meter.NewMeter()))
			if err != nil {
				t.Fatal(err)
			}
			var got caps
			_, got.batchRead = svc.l.tier.(batchReader[[]byte])
			_, got.batchDrop = svc.l.tier.(batchDropper[[]byte])
			_, got.peek = svc.l.tier.(peeker[[]byte])
			_, got.writeThrough = svc.l.tier.(writeThrough[[]byte])
			if got != want[arch] {
				t.Errorf("capabilities = %+v, want %+v", got, want[arch])
			}
		})
	}
}

// TestTierBatchFallbackUsesCache: a design with no batched protocol must
// serve a batch through its per-key one. Warmed, that is eight in-process
// hits and not one message to storage.
func TestTierBatchFallbackUsesCache(t *testing.T) {
	for _, arch := range []Arch{LinkedOwned, LinkedTTL} {
		t.Run(arch.String(), func(t *testing.T) {
			svc, tr := newTracedKV(t, arch, nil)
			warmReset(t, svc, tr, 8)
			keys := make([]string, 8)
			for i := range keys {
				keys[i] = workload.KeyName(i)
			}
			if _, err := svc.ReadBatch(keys); err != nil {
				t.Fatal(err)
			}
			want := trace.PathStats{Requests: 1, LinkedHits: 8}
			if got := tr.PathStats(); got != want {
				t.Errorf("warmed ReadBatch path = %+v, want %+v", got, want)
			}
		})
	}
}

// TestTierHitRatioParity pins the accounting both services now share: the
// hit ratio is counted at the tier call, so a read-only stream over a
// warmed cache that holds the whole working set reads exactly 1 under
// every caching design, whichever application runs on it.
func TestTierHitRatioParity(t *testing.T) {
	for _, arch := range []Arch{Remote, Linked, LinkedVersion, LinkedOwned} {
		kv, _ := newTracedKV(t, arch, nil)
		services := map[string]Service{"kv": kv, "catalog": newCatalogSvc(t, arch, ModeKV)}
		for name, svc := range services {
			t.Run(arch.String()+"/"+name, func(t *testing.T) {
				pass := func() {
					for i := 0; i < invKeys; i++ {
						if _, err := svc.Read(workload.KeyName(i)); err != nil {
							t.Fatal(err)
						}
					}
				}
				pass() // warm
				hits0, reads0 := svc.(hitRatioReporter).cacheStats()
				pass()
				pass()
				hits, reads := svc.(hitRatioReporter).cacheStats()
				if reads-reads0 != 2*invKeys || hits-hits0 != 2*invKeys {
					t.Errorf("warmed read-only stream: %d hits of %d reads, want %d of %d",
						hits-hits0, reads-reads0, 2*invKeys, 2*invKeys)
				}
			})
		}
	}
}

// TestTierSharedAcrossRequestsAllArchs drives one lane from several
// goroutines at once, as cmd/appserver's connections do: the lane's tier
// and storage path are shared by every request on it, so nothing they
// hold may be per-request state. Values are a function of the key, so
// every read has one right answer however the writes interleave.
func TestTierSharedAcrossRequestsAllArchs(t *testing.T) {
	const keys, size = 8, 256 // newTracedKV's rows are 256 bytes
	for arch := Base; arch < numArchs; arch++ {
		t.Run(arch.String(), func(t *testing.T) {
			svc, _ := newTracedKV(t, arch, nil)
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 60; i++ {
						key := workload.KeyName((g + i) % keys)
						if i%5 == g%5 {
							if err := svc.Write(key, ValueFor(key, size)); err != nil {
								t.Error(err)
								return
							}
							continue
						}
						got, err := svc.Read(key)
						if err != nil {
							t.Error(err)
							return
						}
						if want := Digest(ValueFor(key, size)); !bytes.Equal(got, want) {
							t.Errorf("read %s = %x, want %x", key, got, want)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestUnknownArchFailsAtConstruction: an architecture no tier implements
// is a configuration error, reported before the first request.
func TestUnknownArchFailsAtConstruction(t *testing.T) {
	if _, err := NewKVService(smallCfg(numArchs, meter.NewMeter())); err == nil {
		t.Error("NewKVService accepted an unknown architecture")
	}
	cfg := CatalogServiceConfig{ServiceConfig: smallCfg(numArchs, meter.NewMeter()), Tables: 4}
	if _, err := NewCatalogService(cfg); err == nil {
		t.Error("NewCatalogService accepted an unknown architecture")
	}
}
