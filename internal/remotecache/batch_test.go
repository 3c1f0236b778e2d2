package remotecache

import (
	"errors"
	"testing"

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

// onLane runs fn on a fresh request lane of m; closing the lane folds
// its path counts into m.Path.
func onLane(m *meter.Meter, fn func(sc trace.SpanContext)) {
	l := meter.OpenLane(m.Component("app"))
	defer l.Close()
	fn(trace.SpanContext{}.WithLane(l))
}

// Partial-result semantics, per topology. A single-node batch is one
// frame, so a failed RPC is ONE demotion that reads every key as a miss.
// Demotions are counted on the request's lane. A routed client refuses a
// batch outright: it sends nothing and counts nothing.
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
		f := newRoutedFixture(t, 3, 16, nil)
		m := meter.NewMeter()
		onLane(m, func(sc trace.SpanContext) {
			if _, _, held, err := f.client.MultiBorrowCtx(sc, []string{"a", "b"}); !errors.Is(err, errRoutedBatch) || held != nil {
				t.Errorf("routed MultiBorrow = %v, %d buffers lent; want errRoutedBatch and none", err, len(held))
			}
			if err := f.client.MultiSetCtx(sc, []string{"a", "b"}, three[:2]); !errors.Is(err, errRoutedBatch) {
				t.Errorf("routed MultiSet = %v, want errRoutedBatch", err)
			}
			if err := f.client.MultiDeleteCtx(sc, []string{"a", "b"}); !errors.Is(err, errRoutedBatch) {
				t.Errorf("routed MultiDelete = %v, want errRoutedBatch", err)
			}
		})
		if p := m.Path(); p != (meter.PathStats{}) {
			t.Errorf("refused batches counted %+v, want nothing", p)
		}
		for name, srv := range f.servers {
			if srv.UsedBytes() != 0 {
				t.Errorf("node %s holds bytes after a refused MultiSet", name)
			}
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
