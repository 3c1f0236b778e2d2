package storage

import (
	"fmt"
	"strings"
	"testing"

	"cachecost/internal/meter"
	"cachecost/internal/rpc"
	"cachecost/internal/storage/kv"
	"cachecost/internal/storage/sql"
	"cachecost/internal/telemetry"
)

func TestDurableNodeServesSQLAndMetersDisk(t *testing.T) {
	m := meter.NewMeter()
	n := NewNode(Config{
		Replicas:        3,
		BlockCacheBytes: 4 << 10, // tiny DRAM tier: force demotions
		Meter:           m,
		Durable:         true,
		MemtableBytes:   16 << 10,
	})
	defer n.Close()
	c := NewClient(rpc.NewDirect(n.Server()))

	if _, err := c.Exec("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 200)
	for i := 0; i < 200; i++ {
		if _, err := c.Exec("INSERT INTO t (id, v) VALUES (?, ?)", sql.Int64(int64(i)), sql.Text(fmt.Sprintf("v%03d-%s", i, pad))); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range n.stores {
		st.DataBytes() // flushes the memtable
	}
	for i := 0; i < 200; i++ {
		rs, err := c.Query("SELECT v FROM t WHERE id = ?", sql.Int64(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != 1 || !strings.HasPrefix(rs.Rows[0][0].Str, fmt.Sprintf("v%03d-", i)) {
			t.Fatalf("id %d: %v", i, rs.Rows)
		}
	}

	st := n.LeaderDB().Store().Stats()
	if st.WALAppends == 0 || st.WALFsyncs == 0 {
		t.Fatalf("durable node never hit the WAL: %+v", st)
	}
	if st.TierDemotions == 0 {
		t.Fatalf("4 KiB DRAM tier never demoted: %+v", st)
	}
	if st.DiskReads == 0 {
		t.Fatalf("cold reads never hit the disk tier: %+v", st)
	}
	var diskBytes int64
	for _, cs := range m.Snapshot() {
		if cs.Name == "storage.kv" {
			diskBytes = cs.DiskBytes
		}
	}
	if diskBytes <= 0 {
		t.Fatal("durable node must carry metered disk bytes")
	}
}

func TestDurableNodeTelemetryPublishesTierState(t *testing.T) {
	reg := telemetry.NewRegistry()
	n := NewNode(Config{
		Replicas:        1,
		BlockCacheBytes: 4 << 10,
		Durable:         true,
		MemtableBytes:   8 << 10,
		Telemetry:       reg,
	})
	defer n.Close()
	c := NewClient(rpc.NewDirect(n.Server()))
	c.Exec("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	pad := strings.Repeat("y", 300)
	for i := 0; i < 100; i++ {
		c.Exec("INSERT INTO t (id, v) VALUES (?, ?)", sql.Int64(int64(i)), sql.Text(pad))
	}
	n.LeaderDB().Store().DataBytes() // flushes the memtable
	for i := 0; i < 100; i++ {
		c.Query("SELECT v FROM t WHERE id = ?", sql.Int64(int64(i)))
	}

	snap := reg.Snapshot()
	got := map[string]float64{}
	for _, s := range snap.Counters {
		got[s.Name] = s.Value
	}
	for _, s := range snap.Gauges {
		got[s.Name] = s.Value
	}
	for _, name := range []string{"storage.wal.fsync", "storage.wal.appends", "storage.tier.demotions", "storage.disk.reads"} {
		if got[name] <= 0 {
			t.Fatalf("%s = %v, want > 0 (have %v)", name, got[name], got)
		}
	}
	for _, name := range []string{"storage.tier.dram_bytes", "storage.tier.disk_bytes"} {
		if got[name] <= 0 {
			t.Fatalf("gauge %s = %v, want > 0", name, got[name])
		}
	}
	if _, ok := got["storage.recovery.seconds"]; !ok {
		t.Fatal("recovery-time gauge missing")
	}
	if _, ok := got["storage.compaction.bytes"]; !ok {
		t.Fatal("compaction bytes counter missing")
	}
}

func TestDurableNodeWithDirFSSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Node {
		return NewNode(Config{
			Replicas:        1,
			BlockCacheBytes: 1 << 20,
			Durable:         true,
			DurableFS: func(replica int) kv.FS {
				fs, err := kv.DirFS(fmt.Sprintf("%s/r%d", dir, replica))
				if err != nil {
					t.Fatalf("DirFS: %v", err)
				}
				return fs
			},
		})
	}
	n := mk()
	c := NewClient(rpc.NewDirect(n.Server()))
	if _, err := c.Exec("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("INSERT INTO t (id, v) VALUES (1, 'persisted')"); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The catalog is rebuilt via Bootstrap (schema DDL is idempotent
	// setup, not data), but row data must come back from disk.
	n2 := mk()
	defer n2.Close()
	if err := n2.Bootstrap([]string{"CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"}); err != nil {
		t.Fatal(err)
	}
	c2 := NewClient(rpc.NewDirect(n2.Server()))
	rs, err := c2.Query("SELECT v FROM t WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Str != "persisted" {
		t.Fatalf("row not recovered: %v", rs.Rows)
	}
}
