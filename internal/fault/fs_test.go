package fault

import (
	"fmt"
	"testing"
	"time"

	"cachecost/internal/storage/kv"
)

// TestFSMeteredFsyncStalls: the wrapper passes every fsync through to
// the inner file, so what the store synced survives a reopen of the raw
// filesystem.
func TestFSMeteredFsyncStalls(t *testing.T) {
	mem := kv.NewMemFS()
	fs := NewFS(mem, FSOptions{})

	s, err := kv.Open(kv.Config{FS: fs, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 50; i++ {
		s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v"))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if fs.syncs.Load() == 0 {
		t.Fatal("no fsyncs observed")
	}
	r, err := kv.Open(kv.Config{FS: mem, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	for i := 0; i < 50; i++ {
		if _, _, ok := r.Get([]byte(fmt.Sprintf("k%02d", i))); !ok {
			t.Fatalf("k%02d lost across reopen", i)
		}
	}
}

func TestFSSyncSleepIsWallClock(t *testing.T) {
	fs := NewFS(kv.NewMemFS(), FSOptions{SyncSleep: 20 * time.Millisecond})
	s, err := kv.Open(kv.Config{FS: fs, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	start := time.Now()
	s.Put([]byte("k"), []byte("v")) // WALSyncEvery default 1: one fsync
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("fsync returned in %v, want >= 20ms sleep", elapsed)
	}
	s.Close()
}

// TestFSTornWriteKillsAndRecoveryRejects injects a torn WAL write. The
// engine's crash-only contract turns the failed durable write into a
// panic (the "process death"); the bytes left behind are a torn frame
// that recovery must drop without serving, while every previously
// acknowledged write survives.
func TestFSTornWriteKillsAndRecoveryRejects(t *testing.T) {
	mem := kv.NewMemFS()
	fs := NewFS(mem, FSOptions{TornWriteAfter: 6})

	s, err := kv.Open(kv.Config{FS: fs, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	acked := 0
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("torn write must be fatal to the writer")
			}
		}()
		for i := 0; i < 100; i++ {
			s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%02d", i)))
			acked++ // WALSyncEvery=1: every completed Put is acked
		}
	}()
	if fs.torn.Load() != 1 {
		t.Fatalf("TornWrites = %d", fs.torn.Load())
	}
	if acked == 0 {
		t.Fatal("tear fired before any write was acknowledged")
	}

	// Reopen on the raw MemFS, as a restarted process would.
	r, err := kv.Open(kv.Config{FS: mem, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("recovery failed on torn wal: %v", err)
	}
	for i := 0; i < acked; i++ {
		v, _, ok := r.Get([]byte(fmt.Sprintf("k%02d", i)))
		if !ok || string(v) != fmt.Sprintf("v%02d", i) {
			t.Fatalf("acked write k%02d lost or corrupted: %q,%v", i, v, ok)
		}
	}
	for i := acked; i < 100; i++ {
		if _, _, ok := r.Get([]byte(fmt.Sprintf("k%02d", i))); ok {
			t.Fatalf("recovered k%02d, which was never acked (%d were)", i, acked)
		}
	}
	r.Close()
}
