package remotecache

import (
	"errors"
	"fmt"
	"testing"

	"cachecost/internal/cluster"
	"cachecost/internal/meter"
	"cachecost/internal/rpc"
	"cachecost/internal/trace"
)

// multiGet is MultiBorrowCtx with the values copied out.
func multiGet(c *Client, keys []string) ([][]byte, []bool, error) {
	values, found, held, err := c.MultiBorrowCtx(noCtx, keys)
	for i, v := range values {
		values[i] = append([]byte(nil), v...)
	}
	rpc.PutBuffers(held)
	return values, found, err
}

// brokenConn fails every call, modelling an unreachable cache node.
type brokenConn struct{}

func (brokenConn) Call(string, []byte) ([]byte, error) {
	return nil, errors.New("node unreachable")
}
func (brokenConn) Close() error { return nil }

func TestMultiGetSetDeleteSingleNode(t *testing.T) {
	srv := newNode(t, nil, 1<<20)
	c := NewSingleClient(rpc.NewDirect(srv.RPCServer()))

	keys := []string{"a", "b", "c", "d"}
	vals := [][]byte{[]byte("va"), []byte("vb"), []byte("vc"), []byte("vd")}
	if err := c.MultiSetCtx(noCtx, keys, vals); err != nil {
		t.Fatal(err)
	}

	// Mixed batch: two present, one absent, one present.
	got, found, err := multiGet(c, []string{"a", "missing", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	wantFound := []bool{true, false, true, true}
	wantVals := []string{"va", "", "vc", "vd"}
	for i := range wantFound {
		if found[i] != wantFound[i] || string(got[i]) != wantVals[i] {
			t.Fatalf("slot %d = %q/%v, want %q/%v", i, got[i], found[i], wantVals[i], wantFound[i])
		}
	}

	if err := c.MultiDeleteCtx(noCtx, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	_, found, err = multiGet(c, keys)
	if err != nil {
		t.Fatal(err)
	}
	if found[0] || found[1] || !found[2] || !found[3] {
		t.Fatalf("after delete: found = %v", found)
	}
}

func TestMultiGetEmptyBatch(t *testing.T) {
	srv := newNode(t, nil, 1<<20)
	c := NewSingleClient(rpc.NewDirect(srv.RPCServer()))
	vals, found, err := multiGet(c, nil)
	if err != nil || len(vals) != 0 || len(found) != 0 {
		t.Fatalf("empty batch = %v %v %v", vals, found, err)
	}
	if err := c.MultiSetCtx(noCtx, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.MultiDeleteCtx(noCtx, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMultiSetLengthMismatch(t *testing.T) {
	srv := newNode(t, nil, 1<<20)
	c := NewSingleClient(rpc.NewDirect(srv.RPCServer()))
	if err := c.MultiSetCtx(noCtx, []string{"a", "b"}, [][]byte{[]byte("x")}); err == nil {
		t.Fatal("mismatched keys/values must error")
	}
}

// A routed batch fans out across nodes key by key and answers
// positionally: duplicates and misses keep their slots, each hit lends
// its own response buffer, and MultiDelete clears every node.
func TestMultiGetFansOutAcrossNodes(t *testing.T) {
	f := newRoutedFixture(t, 3, 16, nil)
	c := f.client

	const n = 90
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		vals[i] = []byte(fmt.Sprintf("v%d", i))
	}
	if err := c.MultiSetCtx(noCtx, keys, vals); err != nil {
		t.Fatal(err)
	}
	// Every key twice, each pair split by a miss.
	var batch []string
	for _, k := range keys {
		batch = append(batch, k, "absent-"+k, k)
	}
	values, found, held, err := c.MultiBorrowCtx(noCtx, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range batch {
		want := vals[i/3]
		if i%3 == 1 {
			want = nil
		}
		if found[i] != (want != nil) || string(values[i]) != string(want) {
			t.Fatalf("slot %d (%s) = %q/%v, want %q", i, k, values[i], found[i], want)
		}
	}
	if len(held) != 2*n {
		t.Fatalf("lent %d buffers, want one per hit (%d)", len(held), 2*n)
	}
	rpc.PutBuffers(held)
	// The batch must actually have sharded: every node owns some keys.
	for name, srv := range f.servers {
		if srv.UsedBytes() == 0 {
			t.Fatalf("node %s received no keys", name)
		}
	}
	if err := c.MultiDeleteCtx(noCtx, keys); err != nil {
		t.Fatal(err)
	}
	for name, srv := range f.servers {
		if srv.UsedBytes() != 0 {
			t.Fatalf("node %s still holds bytes after MultiDelete", name)
		}
	}
}

// onLane runs fn on a fresh request lane of m; closing the lane folds
// its path counts into m.Path.
func onLane(m *meter.Meter, fn func(sc trace.SpanContext)) {
	l := meter.OpenLane(m.Component("app"))
	defer l.Close()
	fn(trace.SpanContext{}.WithLane(l))
}

// Partial-result semantics, per topology. A single-node batch is one
// frame, so a failed RPC is ONE demotion that reads every key as a miss.
// A routed batch is per-key ops: with one of three nodes dead, the client
// returns the live nodes' hits, reads the dead node's keys as misses and
// counts one demotion per dead key. Demotions are counted on the
// request's lane.
func TestMultiGetPartialResultsDegraded(t *testing.T) {
	three := [][]byte{[]byte("x"), []byte("y"), []byte("z")}
	t.Run("single", func(t *testing.T) {
		c := NewSingleClient(brokenConn{})
		keys := []string{"a", "b", "c"}
		m := meter.NewMeter()
		onLane(m, func(sc trace.SpanContext) {
			values, found, held, err := c.MultiBorrowCtx(sc, keys)
			if err != nil || held != nil {
				t.Fatalf("batch err = %v, %d held; want no error and nothing lent", err, len(held))
			}
			for i := range keys {
				if found[i] || values[i] != nil {
					t.Fatalf("slot %d = %q/%v, want a miss", i, values[i], found[i])
				}
			}
		})
		if p := m.Path(); p.Degraded != 1 || p.CacheMisses != 3 {
			t.Fatalf("Degraded = %d, CacheMisses = %d; want 1 (one failed RPC, not one per key) and 3", p.Degraded, p.CacheMisses)
		}
		onLane(m, func(sc trace.SpanContext) {
			if err := c.MultiSetCtx(sc, keys, three); err != nil {
				t.Fatal(err)
			}
			if err := c.MultiDeleteCtx(sc, keys); err != nil {
				t.Fatal(err)
			}
		})
		if got := m.Path().Degraded; got != 3 {
			t.Fatalf("Degraded = %d, want 3", got)
		}
	})

	t.Run("routed", func(t *testing.T) {
		smap, err := cluster.NewShardMap(16, []string{"c0", "c1", "c2"}, 64)
		if err != nil {
			t.Fatal(err)
		}
		conns := map[string]rpc.Conn{"c1": brokenConn{}}
		for _, n := range []string{"c0", "c2"} {
			conns[n] = rpc.NewDirect(newNode(t, nil, 1<<20).RPCServer())
		}
		c, err := NewRoutedClient(conns, smap)
		if err != nil {
			t.Fatal(err)
		}
		var liveKeys, deadKeys []string
		for i := 0; len(liveKeys) < 3 || len(deadKeys) < 3; i++ {
			k := fmt.Sprintf("k%d", i)
			if smap.Placement(smap.ShardOf(k)).Primary() == "c1" {
				deadKeys = append(deadKeys, k)
			} else {
				liveKeys = append(liveKeys, k)
			}
		}
		liveKeys, deadKeys = liveKeys[:3], deadKeys[:3]
		for _, k := range liveKeys {
			if err := c.Set(k, []byte("v-"+k)); err != nil {
				t.Fatal(err)
			}
		}
		batch := []string{liveKeys[0], deadKeys[0], liveKeys[1], deadKeys[1], liveKeys[2], deadKeys[2]}

		// Partial results, one demotion per dead key.
		m := meter.NewMeter()
		onLane(m, func(sc trace.SpanContext) {
			values, found, held, err := c.MultiBorrowCtx(sc, batch)
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range batch {
				wantLive := i%2 == 0
				if found[i] != wantLive || (wantLive && string(values[i]) != "v-"+k) {
					t.Fatalf("slot %d (%s) = %q/%v, want live=%v", i, k, values[i], found[i], wantLive)
				}
			}
			if len(held) != 3 {
				t.Fatalf("%d buffers lent, want one per live hit (3)", len(held))
			}
			rpc.PutBuffers(held)
		})
		if got := m.Path().Degraded; got != 3 {
			t.Fatalf("Degraded = %d, want 3 (one per dead key)", got)
		}
		onLane(m, func(sc trace.SpanContext) {
			if err := c.MultiSetCtx(sc, deadKeys, three); err != nil {
				t.Fatal(err)
			}
			if err := c.MultiDeleteCtx(sc, deadKeys); err != nil {
				t.Fatal(err)
			}
		})
		if got := m.Path().Degraded; got != 9 {
			t.Fatalf("Degraded = %d, want 9", got)
		}
	})
}

// Each batch frame round-trips through the codec the lab runs: the
// client writes MultiSet, MultiGet and MultiDelete in place, the node
// reads them in place and writes its MultiAck and MultiGet replies, and
// the client reads those. The cases are the ones positional alignment
// must survive: an empty key, an empty value, and a miss between hits.
func TestMultiMessagesRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name       string
		keys, vals []string
		get        []string
		found      []bool
	}{
		{"empty key", []string{"a", "", "c"}, []string{"x", "y", "z"}, []string{"a", "", "c"}, []bool{true, true, true}},
		{"empty value", []string{"k"}, []string{""}, []string{"k"}, []bool{true}},
		{"miss between hits", []string{"x", "z"}, []string{"1", "3"}, []string{"x", "y", "z"}, []bool{true, false, true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewSingleClient(rpc.NewDirect(newNode(t, nil, 1<<20).RPCServer()))
			want := map[string]string{}
			vals := make([][]byte, len(tc.vals))
			for i, v := range tc.vals {
				vals[i], want[tc.keys[i]] = []byte(v), v
			}
			m := meter.NewMeter() // a reply the client cannot read is a demotion
			onLane(m, func(sc trace.SpanContext) {
				if err := c.MultiSetCtx(sc, tc.keys, vals); err != nil {
					t.Fatal(err)
				}
			})
			got, found, err := multiGet(c, tc.get)
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range tc.get {
				if found[i] != tc.found[i] || string(got[i]) != want[k] {
					t.Fatalf("slot %d (%q) = %q/%v, want %q/%v", i, k, got[i], found[i], want[k], tc.found[i])
				}
			}
			onLane(m, func(sc trace.SpanContext) {
				if err := c.MultiDeleteCtx(sc, tc.keys); err != nil {
					t.Fatal(err)
				}
			})
			if d := m.Path().Degraded; d != 0 {
				t.Fatalf("Degraded = %d: the client could not read the node's MultiAck", d)
			}
			if _, found, err = multiGet(c, tc.get); err != nil {
				t.Fatal(err)
			}
			for i, f := range found {
				if f {
					t.Fatalf("slot %d (%q) survived MultiDelete", i, tc.get[i])
				}
			}
		})
	}
}
