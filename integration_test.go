package cachecost_test

// End-to-end integration tests: the cluster binaries' components wired
// over real TCP sockets in one process — storeserver's node, cacheserver's
// node and the application tier talking through actual connections, driven
// by a loadgen-style client.

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"cachecost/internal/core"
	"cachecost/internal/fault"
	"cachecost/internal/meter"
	"cachecost/internal/remotecache"
	"cachecost/internal/rpc"
	"cachecost/internal/storage"
	"cachecost/internal/workload"
)

// listen starts l on an ephemeral port and serves srv on it.
func listen(t *testing.T, srv *rpc.Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String()
}

func TestClusterOverTCP(t *testing.T) {
	for _, arch := range []core.Arch{core.Base, core.Remote, core.Linked} {
		t.Run(arch.String(), func(t *testing.T) {
			// Storage node process.
			storeMeter := meter.NewMeter()
			node := storage.NewNode(storage.Config{
				Replicas:        3,
				BlockCacheBytes: 8 << 20,
				Meter:           storeMeter,
			})
			storeAddr := listen(t, node.Server())

			// Cache node process.
			cacheSrv := remotecache.NewServer(remotecache.ServerConfig{CapacityBytes: 8 << 20})
			cacheAddr := listen(t, cacheSrv.RPCServer())

			// Application tier, connected over TCP.
			appMeter := meter.NewMeter()
			dbConn, err := rpc.Dial(storeAddr, appMeter.Component("app"), meter.NewBurner(), rpc.DefaultCost)
			if err != nil {
				t.Fatal(err)
			}
			eps := core.RemoteEndpoints{DB: dbConn}
			if arch == core.Remote {
				cacheConn, err := rpc.Dial(cacheAddr, appMeter.Component("app"), meter.NewBurner(), rpc.DefaultCost)
				if err != nil {
					t.Fatal(err)
				}
				eps.Cache = cacheConn
			}
			svc, err := core.NewKVServiceRemote(core.ServiceConfig{
				Arch:          arch,
				Meter:         appMeter,
				AppCacheBytes: 4 << 20,
			}, eps)
			if err != nil {
				t.Fatal(err)
			}

			// Preload through SQL over the wire.
			items := make([]core.PreloadItem, 100)
			for i := range items {
				items[i] = core.PreloadItem{Key: workload.KeyName(i), Size: 512}
			}
			if err := svc.Preload(items); err != nil {
				t.Fatal(err)
			}

			// Front door over TCP too, driven concurrently.
			appAddr := listen(t, svc.Front())
			client, err := rpc.Dial(appAddr, nil, nil, rpc.CostModel{})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

			var wg sync.WaitGroup
			errs := make(chan error, 4)
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					app := core.NewAppClient(client, nil) // one per goroutine, sharing the connection
					for i := 0; i < 50; i++ {
						key := workload.KeyName((w*50 + i) % 100)
						got, err := app.Read(key)
						if err != nil {
							errs <- fmt.Errorf("read %s: %w", key, err)
							return
						}
						want := core.Digest(core.ValueFor(key, 512))
						if !bytes.Equal(got, want) {
							errs <- fmt.Errorf("digest mismatch for %s over TCP", key)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			// Writes propagate through the whole stack.
			newVal := core.ValueFor("fresh", 256)
			app := core.NewAppClient(client, nil)
			if err := app.Write(workload.KeyName(1), newVal); err != nil {
				t.Fatal(err)
			}
			got, err := app.Read(workload.KeyName(1))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, core.Digest(newVal)) {
				t.Fatal("write not visible over TCP")
			}

			// A read whose deadline passed before it reached the front
			// door is answered found=false without work, and counted once.
			expired := appMeter.Path().Deadline
			got, err = app.ReadDeadline(workload.KeyName(2), time.Now().Add(-time.Second))
			if err != nil || len(got) != 0 {
				t.Fatalf("expired read over TCP = %x, %v; want found=false", got, err)
			}
			if n := appMeter.Path().Deadline - expired; n != 1 {
				t.Fatalf("expired read counted %d times in Path.Deadline, want 1", n)
			}

			// Both tiers metered real work.
			if storeMeter.Component("storage.sql").Busy() <= 0 {
				t.Error("storage tier should have metered CPU")
			}
			if appMeter.Component("app").Busy() <= 0 {
				t.Error("app tier should have metered CPU")
			}
		})
	}
}

// TestClusterStoreFailover takes the storage tier away from a Linked
// service over TCP, through the fault layer: a cached read survives, an
// uncached one fails, and once storage is back writes and reads succeed.
func TestClusterStoreFailover(t *testing.T) {
	storeMeter := meter.NewMeter()
	node := storage.NewNode(storage.Config{Replicas: 3, BlockCacheBytes: 4 << 20, Meter: storeMeter})
	storeAddr := listen(t, node.Server())

	appMeter := meter.NewMeter()
	dbConn, err := rpc.Dial(storeAddr, nil, nil, rpc.CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(1, nil)
	svc, err := core.NewKVServiceRemote(core.ServiceConfig{
		Arch:  core.Linked,
		Meter: appMeter,
	}, core.RemoteEndpoints{DB: inj.WrapWorker("storage", 0, dbConn)})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Preload([]core.PreloadItem{{Key: "k", Size: 64}, {Key: "cold", Size: 64}}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Read("k"); err != nil {
		t.Fatal(err)
	}

	inj.Kill("storage")
	if _, err := svc.Read("k"); err != nil {
		t.Fatalf("cached read should survive a storage outage: %v", err)
	}
	if _, err := svc.Read("cold"); err == nil {
		t.Fatal("uncached read succeeded with storage down")
	}
	inj.Revive("storage")
	if err := svc.Write("k", core.ValueFor("k2", 64)); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	got, err := svc.Read("k")
	if err != nil || !bytes.Equal(got, core.Digest(core.ValueFor("k2", 64))) {
		t.Fatalf("read after recovery: %v", err)
	}
}
