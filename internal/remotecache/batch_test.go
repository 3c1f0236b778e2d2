package remotecache

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cachecost/internal/meter"
	"cachecost/internal/rpc"
	"cachecost/internal/wire"
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

func roundTrip(in wire.Marshaler, out wire.Unmarshaler) error {
	return wire.Unmarshal(wire.Marshal(in), out)
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
	if err := c.MultiSetTTLCtx(noCtx, keys, vals, 0); err != nil {
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
	if err := c.MultiSetTTLCtx(noCtx, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.MultiDeleteCtx(noCtx, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMultiSetLengthMismatch(t *testing.T) {
	srv := newNode(t, nil, 1<<20)
	c := NewSingleClient(rpc.NewDirect(srv.RPCServer()))
	if err := c.MultiSetTTLCtx(noCtx, []string{"a", "b"}, [][]byte{[]byte("x")}, 0); err == nil {
		t.Fatal("mismatched keys/values must error")
	}
}

func TestMultiGetFansOutAcrossNodes(t *testing.T) {
	nodes := map[string]*Server{}
	conns := map[string]rpc.Conn{}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("cache%d", i)
		nodes[name] = newNode(t, nil, 1<<20)
		conns[name] = rpc.NewDirect(nodes[name].RPCServer())
	}
	c := NewClient(conns)

	const n = 90
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		vals[i] = []byte(fmt.Sprintf("v%d", i))
	}
	if err := c.MultiSetTTLCtx(noCtx, keys, vals, 0); err != nil {
		t.Fatal(err)
	}
	got, found, err := multiGet(c, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !found[i] || string(got[i]) != string(vals[i]) {
			t.Fatalf("key %s = %q/%v", keys[i], got[i], found[i])
		}
	}
	// The batch must actually have sharded: every node owns some keys.
	for name, srv := range nodes {
		if srv.UsedBytes() == 0 {
			t.Fatalf("node %s received no keys", name)
		}
	}
	// Round trips must match the scalar path: MultiDelete existing keys.
	if err := c.MultiDeleteCtx(noCtx, keys); err != nil {
		t.Fatal(err)
	}
	for name, srv := range nodes {
		if srv.UsedBytes() != 0 {
			t.Fatalf("node %s still holds bytes after MultiDelete", name)
		}
	}
}

// Partial-result semantics: with one of two nodes unreachable, a
// degraded client returns the reachable node's hits, reads the dead
// node's keys as misses, and counts ONE demotion per failed node RPC.
func TestMultiGetPartialResultsDegraded(t *testing.T) {
	live := newNode(t, nil, 1<<20)
	conns := map[string]rpc.Conn{
		"cache0": rpc.NewDirect(live.RPCServer()),
		"cache1": brokenConn{},
	}
	c := NewClient(conns)

	// Find keys on each side of the ring split.
	var liveKeys, deadKeys []string
	for i := 0; len(liveKeys) < 3 || len(deadKeys) < 3; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.ring.Owner(k) == "cache0" {
			liveKeys = append(liveKeys, k)
		} else {
			deadKeys = append(deadKeys, k)
		}
	}
	liveKeys, deadKeys = liveKeys[:3], deadKeys[:3]
	for _, k := range liveKeys {
		live.store.Put(k, []byte("v-"+k))
	}

	batch := []string{liveKeys[0], deadKeys[0], liveKeys[1], deadKeys[1], liveKeys[2], deadKeys[2]}

	// Strict mode: the dead node fails the whole batch.
	if _, _, err := multiGet(c, batch); err == nil {
		t.Fatal("strict client must propagate the node failure")
	}

	// Degraded mode: partial results.
	m := meter.NewMeter()
	c.Degrade(m.Counter("degraded"))
	vals, found, err := multiGet(c, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range batch {
		wantLive := i%2 == 0
		if found[i] != wantLive {
			t.Fatalf("slot %d (%s): found=%v, want %v", i, k, found[i], wantLive)
		}
		if wantLive && string(vals[i]) != "v-"+k {
			t.Fatalf("slot %d (%s) = %q", i, k, vals[i])
		}
	}
	if got := m.CounterValue("degraded"); got != 1 {
		t.Fatalf("Degraded = %d, want 1 (one failed node RPC, not one per key)", got)
	}

	// Degraded MultiSet/MultiDelete to the dead node: silent no-ops,
	// one demotion each.
	if err := c.MultiSetTTLCtx(noCtx, deadKeys, [][]byte{[]byte("x"), []byte("y"), []byte("z")}, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.MultiDeleteCtx(noCtx, deadKeys); err != nil {
		t.Fatal(err)
	}
	if got := m.CounterValue("degraded"); got != 3 {
		t.Fatalf("Degraded = %d, want 3", got)
	}
}

func TestMultiSetTTLExpires(t *testing.T) {
	srv := newNode(t, nil, 1<<20)
	c := NewSingleClient(rpc.NewDirect(srv.RPCServer()))
	if err := c.MultiSetTTLCtx(noCtx, []string{"a", "b"}, [][]byte{[]byte("1"), []byte("2")}, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	_, found, err := multiGet(c, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if found[0] || found[1] {
		t.Fatal("batched TTL entries should expire")
	}
}

func TestMultiMessagesRoundTrip(t *testing.T) {
	// The message structs must round-trip through the generic
	// Marshal/Unmarshal path (the client hot path encodes field-by-field;
	// this pins the struct codecs they must stay compatible with).
	reqIn := &MultiGetRequest{Keys: []string{"a", "", "c"}}
	var reqOut MultiGetRequest
	if err := roundTrip(reqIn, &reqOut); err != nil {
		t.Fatal(err)
	}
	if len(reqOut.Keys) != 3 || reqOut.Keys[0] != "a" || reqOut.Keys[1] != "" || reqOut.Keys[2] != "c" {
		t.Fatalf("keys = %q", reqOut.Keys)
	}

	respIn := &MultiGetResponse{Found: []bool{true, false, true}, Values: [][]byte{[]byte("x"), nil, []byte("z")}}
	var respOut MultiGetResponse
	if err := roundTrip(respIn, &respOut); err != nil {
		t.Fatal(err)
	}
	if len(respOut.Found) != 3 || !respOut.Found[0] || respOut.Found[1] || !respOut.Found[2] {
		t.Fatalf("found = %v", respOut.Found)
	}
	if len(respOut.Values) != 3 || string(respOut.Values[0]) != "x" || len(respOut.Values[1]) != 0 || string(respOut.Values[2]) != "z" {
		t.Fatalf("values = %q", respOut.Values)
	}

	setIn := &MultiSetRequest{Keys: []string{"k"}, Values: [][]byte{[]byte("v")}, TTLms: 1500}
	var setOut MultiSetRequest
	if err := roundTrip(setIn, &setOut); err != nil {
		t.Fatal(err)
	}
	if len(setOut.Keys) != 1 || setOut.Keys[0] != "k" || string(setOut.Values[0]) != "v" || setOut.TTLms != 1500 {
		t.Fatalf("set = %+v", setOut)
	}

	ackIn := &MultiAck{OK: []bool{false, true}}
	var ackOut MultiAck
	if err := roundTrip(ackIn, &ackOut); err != nil {
		t.Fatal(err)
	}
	if len(ackOut.OK) != 2 || ackOut.OK[0] || !ackOut.OK[1] {
		t.Fatalf("ack = %v", ackOut.OK)
	}

	delIn := &MultiDeleteRequest{Keys: []string{"x", "y"}}
	var delOut MultiDeleteRequest
	if err := roundTrip(delIn, &delOut); err != nil {
		t.Fatal(err)
	}
	if len(delOut.Keys) != 2 || delOut.Keys[0] != "x" || delOut.Keys[1] != "y" {
		t.Fatalf("del = %q", delOut.Keys)
	}
}
