package core

import (
	"bytes"
	"testing"

	"cachecost/internal/catalog"
	"cachecost/internal/meter"
	"cachecost/internal/trace/assert"
	"cachecost/internal/workload"
)

func newCatalogSvc(t *testing.T, arch Arch, mode CatalogMode) *CatalogService {
	t.Helper()
	m := meter.NewMeter()
	svc, err := NewCatalogService(CatalogServiceConfig{
		ServiceConfig: ServiceConfig{
			Arch:              arch,
			Meter:             m,
			StorageCacheBytes: 1 << 20,
			AppCacheBytes:     4 << 20,
			RemoteCacheBytes:  4 << 20,
		},
		Mode:       mode,
		Tables:     40,
		StatsBytes: 4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestCatalogServiceAllArchsAgree(t *testing.T) {
	// Every architecture must produce the identical governance summary
	// for the same table — caching must never change answers.
	for _, mode := range []CatalogMode{ModeObject, ModeKV} {
		var want []byte
		for arch := Base; arch < numArchs; arch++ {
			svc := newCatalogSvc(t, arch, mode)
			key := workload.KeyName(7)
			got, err := svc.Read(key)
			if err != nil {
				t.Fatalf("%v/%v: %v", mode, arch, err)
			}
			// Second read exercises the hit path; must not change the
			// answer.
			got2, err := svc.Read(key)
			if err != nil || !bytes.Equal(got, got2) {
				t.Fatalf("%v/%v: hit path diverged (%v)", mode, arch, err)
			}
			if arch == Base {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("%v/%v: summary differs from Base", mode, arch)
			}
		}
	}
}

func TestCatalogServiceWriteInvalidates(t *testing.T) {
	for arch := Base; arch < numArchs; arch++ {
		t.Run(arch.String(), func(t *testing.T) {
			svc := newCatalogSvc(t, arch, ModeObject)
			key := workload.KeyName(3)
			before, err := svc.Read(key)
			if err != nil {
				t.Fatal(err)
			}
			// Refresh the stats payload; the digest in the summary must
			// change on the next read (no stale cached object served).
			if err := svc.Write(key, ValueFor("new-stats", 2048)); err != nil {
				t.Fatal(err)
			}
			after, err := svc.Read(key)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(before, after) {
				t.Fatalf("%v: summary unchanged after stats write", arch)
			}
			// And stays stable once re-cached.
			again, err := svc.Read(key)
			if err != nil || !bytes.Equal(after, again) {
				t.Fatalf("%v: unstable after re-cache (%v)", arch, err)
			}
		})
	}
}

// TestCatalogTracedPathCounters: Catalog requests open their root span in
// the one front-door client and its storage and cache nodes are built with
// KVService's config, so a traced Catalog deployment counts the §5.4 paths
// exactly: a denormalized read is one statement, a rich-object read the
// statements GetTableObject issues, and a warmed Remote hit two cache
// messages and none.
func TestCatalogTracedPathCounters(t *testing.T) {
	const reads = 8
	for _, tc := range []struct {
		arch Arch
		mode CatalogMode
		want meter.PathStats
	}{
		{Base, ModeKV, meter.PathStats{RPCHops: 1, SQLStatements: 1}},
		{Base, ModeObject, meter.PathStats{RPCHops: catalog.ObjectQueryCount, SQLStatements: catalog.ObjectQueryCount}},
		{Remote, ModeObject, meter.PathStats{RPCHops: 1, CacheMsgs: 2, CacheHits: 1}},
	} {
		t.Run(tc.arch.String()+"/"+tc.mode.String(), func(t *testing.T) {
			m := meter.NewMeter()
			svc, err := NewCatalogService(CatalogServiceConfig{
				ServiceConfig: ServiceConfig{Arch: tc.arch, Meter: m,
					StorageCacheBytes: 1 << 20, RemoteCacheBytes: 4 << 20},
				Mode: tc.mode, Tables: 40, StatsBytes: 4 << 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < reads; i++ { // warm the cache tier, if any
				if _, err := svc.Read(workload.KeyName(i)); err != nil {
					t.Fatal(err)
				}
			}
			m.Reset()
			for i := 0; i < reads; i++ {
				if _, err := svc.Read(workload.KeyName(i)); err != nil {
					t.Fatal(err)
				}
			}
			assert.PathPerOp(t, m.Path(), reads, tc.want)
		})
	}
}

func TestCatalogServiceModeString(t *testing.T) {
	if ModeObject.String() != "object" || ModeKV.String() != "kv" {
		t.Fatal("CatalogMode.String broken")
	}
}

func TestCatalogServiceBadKey(t *testing.T) {
	svc := newCatalogSvc(t, Base, ModeObject)
	if _, err := svc.Read("nodigits"); err == nil {
		t.Fatal("malformed key should error")
	}
	if _, err := svc.Read(workload.KeyName(99999)); err == nil {
		t.Fatal("out-of-range table should error")
	}
}

func TestCatalogServiceKVModeNotSeededForObject(t *testing.T) {
	// A KV-mode deployment seeds only tables_denorm; the normalized
	// schema is absent, so Object-path internals would fail. The service
	// must stay on its own mode's path.
	svc := newCatalogSvc(t, Base, ModeKV)
	if _, err := svc.Read(workload.KeyName(1)); err != nil {
		t.Fatalf("KV-mode read should work: %v", err)
	}
}

// TestCatalogReadBatchMatchesReadAllArchs: the catalog gets the batch
// handlers with no code of its own. Its storage path has no batched load,
// so every design serves a batch key by key, and a batch answers what the
// per-key reads answer, cold and warm.
func TestCatalogReadBatchMatchesReadAllArchs(t *testing.T) {
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = workload.KeyName(2 * i)
	}
	for _, mode := range []CatalogMode{ModeObject, ModeKV} {
		for arch := Base; arch < numArchs; arch++ {
			t.Run(arch.String()+"/"+mode.String(), func(t *testing.T) {
				svc := newCatalogSvc(t, arch, mode)
				for pass := 0; pass < 2; pass++ {
					got, err := svc.ReadBatch(keys)
					if err != nil {
						t.Fatal(err)
					}
					for i, k := range keys {
						if want, err := svc.Read(k); err != nil || !bytes.Equal(got[i], want) {
							t.Fatalf("pass %d: batch answer for %s differs from Read (%v)", pass, k, err)
						}
					}
				}
			})
		}
	}
}
