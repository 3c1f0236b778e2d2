package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"cachecost/internal/catalog"
	"cachecost/internal/meter"
	"cachecost/internal/remotecache"
	"cachecost/internal/rpc"
	"cachecost/internal/storage"
	"cachecost/internal/storage/sql"
	"cachecost/internal/trace"
	"cachecost/internal/wire"
	"cachecost/internal/workload"
)

// The tests in this file pin the front-door and tier rows of DESIGN.md's
// "Buffer ownership" table. Under -race rpc.PutBuffer poisons what it
// recycles, so a value used after its buffer went back reads as poison.

// TestOwnershipRemoteHitHeldUntilReleased: the bytes a Remote hit hands
// the front door are borrowed from the cache response, and stay
// byte-identical until the request gives the buffer back — while four
// goroutines on the same lane overwrite the key (storage write plus cache
// Delete), read it back in (miss, fill, hit), evict the whole node
// (Resize(0) and back) and push well over a thousand other requests'
// buffers through the pool.
func TestOwnershipRemoteHitHeldUntilReleased(t *testing.T) {
	svc, err := BuildKVService(smallCfg(Remote, meter.NewMeter()), smallGen(13))
	if err != nil {
		t.Fatal(err)
	}
	key := workload.KeyName(3)
	want := ValueFor(key, 2048)
	for round := 0; round < 4; round++ {
		if err := svc.Write(key, want); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Read(key); err != nil { // miss: fills the cache
			t.Fatal(err)
		}
		v, held, hit, err := svc.l.tier.read(trace.SpanContext{}, key, svc.l.src)
		if err != nil || !hit || held == nil {
			t.Fatalf("warmed tier read: hit=%v held=%v err=%v", hit, held != nil, err)
		}
		var wg sync.WaitGroup
		for _, fn := range []func(i int) error{
			func(i int) error { return svc.Write(key, ValueFor(workload.KeyName(i), 2048)) },
			func(i int) error { _, err := svc.Read(key); return err },
			func(i int) error {
				svc.RemoteCacheServer().Resize(0)
				svc.RemoteCacheServer().Resize(256 << 10)
				return nil
			},
			func(i int) error {
				_, err := svc.ReadBatch([]string{workload.KeyName(i % 50), workload.KeyName(i%50 + 50)})
				return err
			},
		} {
			wg.Add(1)
			go func(fn func(int) error) {
				defer wg.Done()
				for i := 0; i < 250; i++ {
					if err := fn(i); err != nil {
						t.Error(err)
						return
					}
				}
			}(fn)
		}
		wg.Wait()
		if !bytes.Equal(v, want) {
			t.Fatalf("round %d: a borrowed hit changed before the request released it", round)
		}
		rpc.PutBuffer(held)
	}
}

// TestOwnershipKeyCopiedOnMiss: the front door's read key aliases its
// request, so whatever keeps the key past the request copies it — here
// the access observer, and the miss's cache fill, which must still be
// found under the real key once the request buffer is reused. (The cache
// node's Get, which keeps nothing, reads its key in place: remotecache's
// TestOwnershipServerGetAliasesKeyAndAllocatesNothing.)
func TestOwnershipKeyCopiedOnMiss(t *testing.T) {
	svc, err := BuildKVService(smallCfg(Remote, meter.NewMeter()), smallGen(13))
	if err != nil {
		t.Fatal(err)
	}
	var seen string
	svc.SetAccessObserver(func(key string, _ int64) { seen = key })
	key := workload.KeyName(7)
	req := wire.Marshal(&remotecache.GetRequest{Key: key})
	resp, err := svc.Front().Dispatch("app.Read", req) // cold: a miss that fills
	if err != nil {
		t.Fatal(err)
	}
	rpc.PutBuffer(resp)
	lo, hi := uintptr(unsafe.Pointer(&req[0])), uintptr(unsafe.Pointer(&req[len(req)-1]))
	if p := uintptr(unsafe.Pointer(unsafe.StringData(seen))); p >= lo && p <= hi {
		t.Fatal("the key the access observer keeps aliases the request buffer")
	}
	// The transport reuses the request buffer; the filled entry must still
	// be found under the real key.
	for i := range req {
		req[i] = 0xDB
	}
	before := svc.RemoteCacheServer().Stats().Hits
	if got, err := svc.Read(key); err != nil || !bytes.Equal(got, Digest(ValueFor(key, 2048))) {
		t.Fatalf("read after the request buffer was reused: %v", err)
	}
	if svc.RemoteCacheServer().Stats().Hits != before+1 {
		t.Fatal("the miss filled the cache under a key that changed with the request buffer")
	}
}

// TestOwnershipWriteThroughKeepsItsOwnCopy: the front door's write decode
// aliases the request, so a tier that keeps the row (Linked write-through)
// must be given a copy — reusing the request buffer must not change what
// the cache serves.
func TestOwnershipWriteThroughKeepsItsOwnCopy(t *testing.T) {
	svc, err := BuildKVService(smallCfg(Linked, meter.NewMeter()), smallGen(13))
	if err != nil {
		t.Fatal(err)
	}
	for i, method := range []string{"app.Write", "app.WriteBatch"} {
		key := workload.KeyName(9 + i)
		value := ValueFor("fresh", 2048)
		req := wire.Append(nil, func(e *wire.Encoder) { // SetRequest and MultiSetRequest of one pair
			e.String(1, key)
			e.BytesField(2, value)
		})
		resp, err := svc.Front().Dispatch(method, req)
		if err != nil {
			t.Fatal(err)
		}
		rpc.PutBuffer(resp)
		for i := range req {
			req[i] = 0xDB
		}
		got, ok := svc.LinkedCache().Get(key)
		if !ok || !bytes.Equal(got.v, value) {
			t.Fatalf("%s: the write-through entry aliases the request buffer", method)
		}
	}
}

// TestBorrowedStorageReads drives every borrowed storage read at once:
// the storage node's Query, BatchQuery and Version results and the rows
// UPDATE leaves behind, on one node; the catalog objects composed from
// borrowed results; and the front door's reads, whose row values travel
// up lent from the storage response until the digest is encoded. Each
// goroutine owns its keys, so every value is checked against what it
// last wrote, before the result is released. Under -race rpc.PutBuffer
// poisons what it recycles, so a value read after its response went
// back — a catalog field not cloned, a response released before the
// digest is encoded, a Linked fill that keeps the lent row — reads as
// poison and fails here.
func TestBorrowedStorageReads(t *testing.T) {
	const (
		workers = 4
		owned   = 4 // keys per worker
		ops     = 120
	)
	node := storage.NewNode(storage.Config{Replicas: 3, BlockCacheBytes: 1 << 20, Meter: meter.NewMeter()})
	if err := catalog.Seed(node, catalog.SeedConfig{Tables: 12, Normalized: true, StatsBytesOverride: 512}); err != nil {
		t.Fatal(err)
	}
	if err := node.BootstrapExec("CREATE TABLE kvdata (k TEXT PRIMARY KEY, v BLOB)"); err != nil {
		t.Fatal(err)
	}
	keyOf := func(g, j int) sql.Value { return sql.Text(fmt.Sprintf("key-%d-%d", g, j)) }
	for g := 0; g < workers; g++ {
		for j := 0; j < owned; j++ {
			if err := node.BootstrapExec("INSERT INTO kvdata (k, v) VALUES (?, ?)", keyOf(g, j), sql.Blob(ValueFor(keyOf(g, j).Str, 1024))); err != nil {
				t.Fatal(err)
			}
		}
	}
	client := func() *storage.Client {
		return storage.NewClient(rpc.NewLoopback(node.Server(), nil, meter.NewBurner(), rpc.CostModel{}))
	}

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := client()
			keys := make([]sql.Value, owned)
			latest := make([][]byte, owned)
			vers := make([]uint64, owned)
			for j := range keys {
				keys[j] = keyOf(g, j)
				latest[j] = ValueFor(keys[j].Str, 1024)
			}
			for i := 0; i < ops; i++ {
				j := i % owned
				switch i % 4 {
				case 0:
					v := ValueFor(fmt.Sprintf("%v-%d", keys[j], i), 1024)
					if _, err := c.Exec("UPDATE kvdata SET v = ? WHERE k = ?", sql.Blob(v), keys[j]); err != nil {
						t.Error(err)
						return
					}
					latest[j] = v
				case 1:
					rs, err := c.Query("SELECT v FROM kvdata WHERE k = ?", keys[j])
					if err != nil || len(rs.Rows) != 1 || !bytes.Equal(rs.Rows[0][0].Blob, latest[j]) {
						t.Errorf("worker %d: Query %v: %v, %v", g, keys[j], rs, err)
						return
					}
					rs.Release()
				case 2:
					resp, err := c.BatchQueryCtx(trace.SpanContext{}, "SELECT k, v FROM kvdata WHERE k = ?", keys)
					if err != nil {
						t.Error(err)
						return
					}
					for k, rs := range resp.Results {
						if len(rs.Rows) != 1 || rs.Rows[0][0].Str != keys[k].Str || !bytes.Equal(rs.Rows[0][1].Blob, latest[k]) {
							t.Errorf("worker %d: BatchQuery slot %d: %v", g, k, rs.Rows)
							return
						}
					}
					rpc.PutBuffer(resp.Detach())
				default:
					ver, found, err := c.VersionCtx(trace.SpanContext{}, "kvdata", keys[j])
					if err != nil || !found || ver < vers[j] {
						t.Errorf("worker %d: Version %v = %d, %v, %v; had %d", g, keys[j], ver, found, err, vers[j])
						return
					}
					vers[j] = ver
				}
			}
		}(g)
	}

	// Catalog objects, composed from borrowed results, must survive every
	// query after them.
	app := catalog.NewApp(client())
	var objs []*catalog.TableInfo
	var snaps [][]byte
	for i := 0; i < 3*ops; i++ {
		info, err := app.GetTableObject(int64(i % 12))
		if err != nil {
			t.Fatal(err)
		}
		objs, snaps = append(objs, info), append(snaps, wire.Marshal(info))
	}
	wg.Wait()
	for i, info := range objs {
		if !bytes.Equal(wire.Marshal(info), snaps[i]) {
			t.Fatalf("catalog object %d (table %d) changed after later queries", i, info.ID)
		}
	}

	// The front door: reads lent from storage up to the digest, fills
	// that keep a copy, and keys aliasing the request.
	for _, arch := range []Arch{Base, Remote, Linked, LinkedVersion} {
		t.Run(arch.String(), func(t *testing.T) {
			svc, err := BuildKVService(smallCfg(arch, meter.NewMeter()), smallGen(13))
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					latest := make(map[string][]byte)
					for i := 0; i < ops; i++ {
						key := workload.KeyName(g*owned + i%owned)
						want, ok := latest[key]
						if !ok {
							want = ValueFor(key, 2048)
						}
						if i%5 == 4 {
							want = ValueFor(fmt.Sprintf("%s-%d", key, i), 2048)
							if err := svc.Write(key, want); err != nil {
								t.Error(err)
								return
							}
							latest[key] = want
						}
						got, err := svc.Read(key)
						if err != nil || !bytes.Equal(got, Digest(want)) {
							t.Errorf("worker %d: read %s: %x, %v; want %x", g, key, got, err, Digest(want))
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}
