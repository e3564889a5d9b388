package wire

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

// startClusterTestServer boots a server with the given cluster hooks on
// a loopback port; nil hooks model a bmwd running without -cluster-map.
func startClusterTestServer(t *testing.T, hello ClusterHello, sink ClusterSink, gate OwnerGate) string {
	t.Helper()
	eng, err := engine.New(engine.Config{Shards: 2, Order: 2, Levels: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng)
	if hello != nil || sink != nil {
		srv.SetClusterHandlers(hello, sink)
	}
	if gate != nil {
		srv.SetOwnerGate(gate)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		eng.Close()
	})
	return ln.Addr().String()
}

// rawExchange writes one frame and reads one reply on a throwaway
// connection — the cluster control plane's one-shot exchange shape.
func rawExchange(t *testing.T, addr string, typ Type, payload []byte) Frame {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteFrame(conn, typ, 1, payload); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestClusterFramesDisabled: a server without cluster handlers answers
// both cluster frame types with a typed error instead of dying or
// hanging — a plain bmwd is a safe gossip target.
func TestClusterFramesDisabled(t *testing.T) {
	addr := startClusterTestServer(t, nil, nil, nil)
	for _, typ := range []Type{TClusterHello, TClusterMap} {
		payload := []byte("junk-map")
		if typ == TClusterHello {
			payload = AppendClusterHello(nil, 0)
		}
		f := rawExchange(t, addr, typ, payload)
		if f.Type != TError {
			t.Fatalf("frame %d: answered type %d, want TError", typ, f.Type)
		}
		if len(f.Payload) == 0 || Status(f.Payload[0]) != StatusInvalid {
			t.Fatalf("frame %d: error status %v", typ, f.Payload)
		}
	}
}

// TestClusterHelloFrame: the hello handler sees the requester's version
// and its nil/non-nil answer maps to an empty/full TClusterMap reply.
func TestClusterHelloFrame(t *testing.T) {
	local := []byte("encoded-map-v7")
	var lastSince atomic.Uint64
	addr := startClusterTestServer(t, func(since uint64) []byte {
		lastSince.Store(since)
		if since >= 7 {
			return nil
		}
		return local
	}, func(p []byte) []byte { return nil }, nil)

	f := rawExchange(t, addr, TClusterHello, AppendClusterHello(nil, 3))
	if f.Type != TClusterMap || string(f.Payload) != string(local) {
		t.Fatalf("stale hello: type %d payload %q", f.Type, f.Payload)
	}
	if lastSince.Load() != 3 {
		t.Fatalf("handler saw since=%d", lastSince.Load())
	}
	f = rawExchange(t, addr, TClusterHello, AppendClusterHello(nil, 7))
	if f.Type != TClusterMap || len(f.Payload) != 0 {
		t.Fatalf("current hello: type %d payload %q, want empty map frame", f.Type, f.Payload)
	}
	// A malformed hello payload is a frame error, not a crash.
	f = rawExchange(t, addr, TClusterHello, []byte{1, 2, 3})
	if f.Type != TError {
		t.Fatalf("short hello answered type %d", f.Type)
	}
}

// TestClusterSinkFrame: a gossiped map reaches the sink verbatim and
// the sink's reply (or lack of one) flows back as a TClusterMap.
func TestClusterSinkFrame(t *testing.T) {
	reply := []byte("newer-local-map")
	var got atomic.Value
	addr := startClusterTestServer(t, func(uint64) []byte { return nil }, func(p []byte) []byte {
		got.Store(append([]byte{}, p...))
		if string(p) == "older" {
			return reply
		}
		return nil
	}, nil)

	f := rawExchange(t, addr, TClusterMap, []byte("newest"))
	if f.Type != TClusterMap || len(f.Payload) != 0 {
		t.Fatalf("adopted offer: type %d payload %q", f.Type, f.Payload)
	}
	if string(got.Load().([]byte)) != "newest" {
		t.Fatalf("sink saw %q", got.Load())
	}
	f = rawExchange(t, addr, TClusterMap, []byte("older"))
	if f.Type != TClusterMap || string(f.Payload) != string(reply) {
		t.Fatalf("refused offer: type %d payload %q", f.Type, f.Payload)
	}
}

// TestOwnerGatePushesOnly: the gate refuses pushes with StatusNotOwner
// carrying the map version, and is never consulted for pops or peeks.
func TestOwnerGatePushesOnly(t *testing.T) {
	var gated atomic.Uint64
	addr := startClusterTestServer(t, nil, nil, func(op Op) (bool, uint64) {
		gated.Add(1)
		return false, 42 // owns nothing
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res, err := c.Do([]Op{
		{Kind: OpPush, Value: 9, Meta: 1},
		{Kind: OpPop},
		{Kind: OpPeek},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status != StatusNotOwner || res[0].Value != 42 {
		t.Fatalf("gated push: %+v", res[0])
	}
	if res[1].Status != StatusEmpty || res[2].Status != StatusEmpty {
		t.Fatalf("ungated pop/peek on empty engine: %+v %+v", res[1], res[2])
	}
	if gated.Load() != 1 {
		t.Fatalf("gate consulted %d times, want 1 (push only)", gated.Load())
	}
}

// TestPeekOpRoundTrip: OpPeek over the wire is non-destructive and
// reads the post-batch head — the [pop, peek] piggyback contract the
// cluster client's head cache depends on.
func TestPeekOpRoundTrip(t *testing.T) {
	addr := startClusterTestServer(t, nil, nil, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if res, err := c.Do([]Op{{Kind: OpPush, Value: 31, Meta: 5}, {Kind: OpPush, Value: 8, Meta: 6}}); err != nil ||
		res[0].Status != StatusOK || res[1].Status != StatusOK {
		t.Fatalf("pushes: %+v %v", res, err)
	}
	for i := 0; i < 2; i++ {
		res, err := c.Do([]Op{{Kind: OpPeek}})
		if err != nil || res[0].Status != StatusOK || res[0].Value != 8 {
			t.Fatalf("peek %d: %+v %v", i, res, err)
		}
	}
	// The piggyback: one batch pops the head and peeks the successor.
	res, err := c.Do([]Op{{Kind: OpPop}, {Kind: OpPeek}})
	if err != nil || res[0].Value != 8 || res[1].Value != 31 {
		t.Fatalf("[pop, peek]: %+v %v", res, err)
	}
	res, err = c.Do([]Op{{Kind: OpPop}, {Kind: OpPeek}})
	if err != nil || res[0].Value != 31 || res[1].Status != StatusEmpty {
		t.Fatalf("draining [pop, peek]: %+v %v", res, err)
	}
}

// TestPopBoundedOverTheWire is the merge frame's contract end to end:
// [bounded pop x K, peek] takes the elements at or under the bound in
// order, answers StatusMiss (not StatusEmpty, not an error) from the
// first one over it, and the peek reads the head the misses left in
// place.
func TestPopBoundedOverTheWire(t *testing.T) {
	addr := startClusterTestServer(t, nil, nil, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	miss := Result{Status: StatusMiss}
	if res, err := c.Do([]Op{{Kind: OpPopBounded, Value: 1 << 60}, {Kind: OpPeek}}); err != nil ||
		res[0] != miss || res[1].Status != StatusEmpty {
		t.Fatalf("bounded pop on an empty node: %+v %v", res, err)
	}
	// The node's two shards merge, so the frame yields the node's global
	// order up to the bound (engine tests cover the merge itself).
	for _, v := range []uint64{40, 10, 30, 20} {
		if res, err := c.Do([]Op{{Kind: OpPush, Value: v, Meta: 7}}); err != nil || res[0].Status != StatusOK {
			t.Fatalf("push %d: %+v %v", v, res, err)
		}
	}
	frame := []Op{{Kind: OpPopBounded, Value: 25}, {Kind: OpPopBounded, Value: 25},
		{Kind: OpPopBounded, Value: 25}, {Kind: OpPopBounded, Value: 25}, {Kind: OpPeek}}
	res, err := c.Do(frame)
	if err != nil {
		t.Fatal(err)
	}
	want := []Result{{Status: StatusOK, Value: 10, Meta: 7}, {Status: StatusOK, Value: 20, Meta: 7},
		miss, miss, {Status: StatusOK, Value: 30, Meta: 7}}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("result %d = %+v, want %+v (all: %+v)", i, res[i], want[i], res)
		}
	}
}
