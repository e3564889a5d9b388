package cluster

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/refpq"
	"repro/internal/wire"
)

// rankMap2 splits a 20-bit rank space between two nodes.
func rankMap2(addrs []string) *Map {
	return &Map{
		Version:  1,
		Mode:     ModeRank,
		RankBits: 20,
		Nodes: []Node{
			{ID: 1, Epoch: 1, Start: 0, Addrs: []string{addrs[0]}},
			{ID: 2, Epoch: 1, Start: 1 << 19, Addrs: []string{addrs[1]}},
		},
	}
}

// lockstepDo sends one batch through cl.Do and replays it through the
// golden queue in the order Do executes it: every acked push first,
// then pops and peeks in batch order. An OK pop must return the golden
// minimum (ranks compared: ties are interchangeable), an empty one is
// only right when the golden queue is empty, and a peek reads the
// minimum the pops before it left.
func lockstepDo(t *testing.T, cl *Client, golden *refpq.Queue, ops []wire.Op) {
	t.Helper()
	res, err := cl.Do(ops)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	for i, op := range ops {
		if op.Kind != wire.OpPush {
			continue
		}
		switch res[i].Status {
		case wire.StatusOK:
			golden.Push(refpq.Entry{Value: op.Value, Meta: op.Meta})
		case wire.StatusFull, wire.StatusBackpressure, wire.StatusOverloaded:
			// acked-not-applied
		default:
			t.Fatalf("op %d push status %v", i, res[i].Status)
		}
	}
	for i, op := range ops {
		if op.Kind == wire.OpPush {
			continue
		}
		switch r := res[i]; {
		case r.Status == wire.StatusEmpty:
			if golden.Len() != 0 {
				t.Fatalf("op %d (kind %d) answered empty with %d golden elements", i, op.Kind, golden.Len())
			}
		case r.Status != wire.StatusOK:
			t.Fatalf("op %d (kind %d) status %v", i, op.Kind, r.Status)
		case golden.Len() == 0:
			t.Fatalf("op %d (kind %d) returned %d from an empty golden queue", i, op.Kind, r.Value)
		case r.Value != golden.MinValue():
			t.Fatalf("op %d (kind %d) = %d, golden min %d", i, op.Kind, r.Value, golden.MinValue())
		case op.Kind == wire.OpPop:
			golden.PopMin()
		}
	}
}

// TestClientDoDifferential locksteps Do against a single golden queue
// with mixed batches of K pops and a varying number of pushes (plus the
// odd peek splitting the pops into two runs), over three nodes of one
// or two shards each, under rank-band and hash-slot maps: a growing
// phase, a shrinking phase that runs the cluster dry, then an exact
// final drain. K = 1 is PopMin's path; the larger runs are served a node
// at a time and must still come out in global order.
func TestClientDoDifferential(t *testing.T) {
	maps := []struct {
		name  string
		build func([]string) *Map
	}{{"rank", rankMap3}, {"hash", hashMap3}}
	for _, mp := range maps {
		for _, shards := range []int{1, 2} {
			for _, k := range []int{1, 8, 64} {
				t.Run(fmt.Sprintf("%s/shards%d/k%d", mp.name, shards, k), func(t *testing.T) {
					m, _ := startServedMap(t, 3, shards, mp.build)
					cl := newTestClient(t, m)
					golden := refpq.New()
					rng := rand.New(rand.NewSource(int64(97*k + shards)))
					var meta uint64

					batches := 600/k + 24
					for b := 0; b < batches; b++ {
						pushes := rng.Intn(k + 1) // shrinking: k/2 a batch against k pops
						if b < batches/2 {
							pushes += k // growing: 3k/2
						}
						ops := make([]wire.Op, 0, pushes+k+1)
						for i := 0; i < pushes; i++ {
							meta++
							ops = append(ops, wire.Op{Kind: wire.OpPush, Value: rng.Uint64() % (1 << 20), Meta: meta})
						}
						for i := 0; i < k; i++ {
							ops = append(ops, wire.Op{Kind: wire.OpPop})
						}
						rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
						if b%5 == 0 {
							at := rng.Intn(len(ops) + 1)
							ops = append(ops[:at], append([]wire.Op{{Kind: wire.OpPeek}}, ops[at:]...)...)
						}
						lockstepDo(t, cl, golden, ops)
					}

					drain := make([]wire.Op, k)
					for i := range drain {
						drain[i] = wire.Op{Kind: wire.OpPop}
					}
					for golden.Len() > 0 {
						lockstepDo(t, cl, golden, drain)
					}
					lockstepDo(t, cl, golden, drain) // all empty, and says so
					if st := cl.Stats(); st.PopRounds == 0 {
						t.Fatalf("stats count no pop rounds: %+v", st)
					}
				})
			}
		}
	}
}

// TestClientPopRunStaleHeads steals elements out from under the head
// cache through a direct per-node connection, then asks for a run of
// pops. The believed-minimal node's bounded pops miss; its head is
// corrected from the piggybacked peek and the run moves on — to that
// node's true next element when some are left, to the other node when
// none are — and is never cut short with a wrong empty answer.
func TestClientPopRunStaleHeads(t *testing.T) {
	m, _ := startServedMap(t, 3, 2, rankMap3)
	cl := newTestClient(t, m)
	steal := func(want uint64) {
		t.Helper()
		direct, err := wire.Dial(m.Nodes[0].Addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer direct.Close()
		if res, err := direct.Do([]wire.Op{{Kind: wire.OpPop}}); err != nil || res[0].Value != want {
			t.Fatalf("direct steal of %d: %+v %v", want, res, err)
		}
	}
	run := func(k int, want ...wire.Result) {
		t.Helper()
		ops := make([]wire.Op, k)
		for i := range ops {
			ops[i] = wire.Op{Kind: wire.OpPop}
		}
		res, err := cl.Do(ops)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if res[i].Status != want[i].Status || res[i].Value != want[i].Value {
				t.Fatalf("run result %d = %+v, want %+v (all: %+v)", i, res[i], want[i], res)
			}
		}
	}
	ok := func(v uint64) wire.Result { return wire.Result{Status: wire.StatusOK, Value: v} }
	empty := wire.Result{Status: wire.StatusEmpty}

	// 10..40 land on node 1, the rest on node 3.
	for _, v := range []uint64{10, 20, 30, 40, 800000, 800001} {
		if res, err := cl.Push(v, v); err != nil || res.Status != wire.StatusOK {
			t.Fatalf("push %d: %v %v", v, res.Status, err)
		}
	}
	run(1, ok(10)) // caches node 1's head at 20

	steal(20) // node 1 now heads at 30, the cache says 20
	run(2, ok(30), ok(40))

	// Node 1 is cached empty by now; put 50 there behind the cache's
	// back, so the cache is stale the other way: the run starts on
	// node 3, which is not the minimum. Best effort says node 3's
	// elements may come first — but 50 must still come out, not be
	// lost behind a cached "empty".
	direct, err := wire.Dial(m.Nodes[0].Addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if res, err := direct.Do([]wire.Op{{Kind: wire.OpPush, Value: 50, Meta: 50}}); err != nil || res[0].Status != wire.StatusOK {
		t.Fatalf("direct push: %+v %v", res, err)
	}
	run(4, ok(800000), ok(800001), ok(50), empty)
	run(3, empty, empty, empty)
}

// TestClientEmptyRunOneConfirmRound: a run of pops against a cluster
// the cache already believes empty costs one round — the probe of
// every node that confirms it — however long the run, and a run that
// drains the last elements pays that round once at its end.
func TestClientEmptyRunOneConfirmRound(t *testing.T) {
	m, _ := startServedMap(t, 3, 2, rankMap3)
	cl := newTestClient(t, m)
	pops := make([]wire.Op, 8)
	for i := range pops {
		pops[i] = wire.Op{Kind: wire.OpPop}
	}
	for call := 0; call < 3; call++ { // a fresh cache, then a cached-empty one twice
		before := cl.Stats()
		res, err := cl.Do(pops)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Status != wire.StatusEmpty {
				t.Fatalf("call %d pop %d on an empty cluster: %+v", call, i, r)
			}
		}
		after := cl.Stats()
		if d := after.PopRounds - before.PopRounds; d != 1 {
			t.Fatalf("call %d: %d rounds for an all-empty run of %d, want 1", call, d, len(pops))
		}
		for id, n := range after.PerNode {
			if d := n.Ops - before.PerNode[id].Ops; d != 1 {
				t.Fatalf("call %d: node %d was sent %d ops, want 1 probe", call, id, d)
			}
		}
	}

	if res, err := cl.Push(5, 5); err != nil || res.Status != wire.StatusOK {
		t.Fatalf("push: %+v %v", res, err)
	}
	before := cl.Stats().PopRounds
	res, err := cl.Do(pops)
	if err != nil || res[0].Status != wire.StatusOK || res[0].Value != 5 || res[1].Status != wire.StatusEmpty || res[7].Status != wire.StatusEmpty {
		t.Fatalf("draining run: %+v %v", res, err)
	}
	if d := cl.Stats().PopRounds - before; d != 2 {
		t.Fatalf("%d rounds to pop the last element and confirm empty, want 2", d)
	}
}

// frameTap watches every node's connections from the server side: the
// TBatch frames that arrive, and how many responses had been written
// when each did. While slow is set every response is held back by
// tapDelay before it goes out, so all the frames of one wave arrive
// before any of its answers: the distinct counts seen at arrival are
// the waves a call waited on.
type frameTap struct {
	slow     atomic.Bool
	mu       sync.Mutex
	written  int   // TBatchOK frames written, all nodes
	arrivals []int // per TBatch frame received: written when it arrived
}

const tapDelay = 50 * time.Millisecond

func (tap *frameTap) wrap(ln net.Listener) net.Listener { return tapListener{ln, tap} }

// reset starts a measurement.
func (tap *frameTap) reset() {
	tap.mu.Lock()
	tap.arrivals = tap.arrivals[:0]
	tap.mu.Unlock()
}

// frames returns the TBatch frames received since reset and the waves
// they came in.
func (tap *frameTap) frames() (frames, waves int) {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	seen := map[int]bool{}
	for _, w := range tap.arrivals {
		seen[w] = true
	}
	return len(tap.arrivals), len(seen)
}

type tapListener struct {
	net.Listener
	tap *frameTap
}

func (l tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, tap: l.tap}, nil
}

// tapConn is one server-side connection under a frameTap; in and out
// hold the partial frames of each direction.
type tapConn struct {
	net.Conn
	tap     *frameTap
	in, out []byte
}

// countFrames strips the whole frames off buf, counting those of type
// typ, and returns the partial frame left.
func countFrames(buf []byte, typ wire.Type) ([]byte, int) {
	n := 0
	for {
		f, size, err := wire.DecodeFrame(buf)
		if err != nil {
			return buf, n
		}
		if f.Type == typ {
			n++
		}
		buf = buf[size:]
	}
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	var frames int
	c.in, frames = countFrames(append(c.in, p[:n]...), wire.TBatch)
	c.tap.mu.Lock()
	for range frames {
		c.tap.arrivals = append(c.tap.arrivals, c.tap.written)
	}
	c.tap.mu.Unlock()
	return n, err
}

// Write counts the responses before they go out, so a frame the client
// sends on reading one is sure to see it counted.
func (c *tapConn) Write(p []byte) (int, error) {
	if c.tap.slow.Load() {
		time.Sleep(tapDelay)
	}
	var frames int
	c.out, frames = countFrames(append(c.out, p...), wire.TBatchOK)
	c.tap.mu.Lock()
	c.tap.written += frames
	c.tap.mu.Unlock()
	return c.Conn.Write(p)
}

// TestDoRidesFirstPopRound: on two rank-band nodes in steady state —
// every head cached, the lower node drained by each call — an 8-push,
// 8-pop Do with pushes to both bands sends 3 frames over 2 waves. The
// lower node's pops ride its push frame, bounded by the upper node's
// head and pushes; the upper node's pops take one more round. Without
// the rider it is 4 frames over 3 waves: pushes, then a pop round per
// node.
func TestDoRidesFirstPopRound(t *testing.T) {
	tap := &frameTap{}
	m, _ := startServedMapWrapped(t, 2, 1, rankMap2, tap.wrap)
	cl := newTestClient(t, m)
	golden := refpq.New()
	rng := rand.New(rand.NewSource(11))
	var meta uint64
	push := func(v uint64) wire.Op {
		meta++
		return wire.Op{Kind: wire.OpPush, Value: v, Meta: meta}
	}
	const upper = 1 << 19
	standing := make([]wire.Op, 8) // the upper node never runs dry
	for i := range standing {
		standing[i] = push(upper + rng.Uint64()%upper)
	}
	lockstepDo(t, cl, golden, standing)
	call := func() {
		ops := make([]wire.Op, 16)
		for i := range ops {
			switch {
			case i%2 == 1:
				ops[i] = wire.Op{Kind: wire.OpPop}
			case i%4 == 0:
				ops[i] = push(rng.Uint64() % upper)
			default:
				ops[i] = push(upper + rng.Uint64()%upper)
			}
		}
		lockstepDo(t, cl, golden, ops)
	}
	for i := 0; i < 3; i++ {
		call()
	}
	tap.reset()
	tap.slow.Store(true)
	call()
	tap.slow.Store(false)
	if frames, waves := tap.frames(); frames != 3 || waves != 2 {
		t.Fatalf("%d frames over %d waves, want 3 over 2", frames, waves)
	}
}

// TestClusterDoAllocs gates a steady 16-op Do (8 pushes, 8 pops, two
// rank-band nodes), counted process-wide, so the nodes' share is in it
// too: 27 with every node's frame sent before any is waited on and the
// first pop round riding the pushes (45 with a goroutine per node and
// the pop rounds after the push round).
func TestClusterDoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	m, _ := startServedMap(t, 2, 1, rankMap2)
	cl := newTestClient(t, m)
	rng := rand.New(rand.NewSource(1))
	var meta uint64
	ops := make([]wire.Op, 16)
	for i := 0; i < 32; i++ {
		for j := range ops {
			meta++
			ops[j] = wire.Op{Kind: wire.OpPush, Value: rng.Uint64() % (1 << 20), Meta: meta}
		}
		if _, err := cl.Do(ops); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(500, func() {
		mixedBatch(rng, &meta, ops)
		if _, err := cl.Do(ops); err != nil {
			t.Fatal(err)
		}
	}); avg > 27 {
		t.Fatalf("%v allocations per 16-op Do, want <= 27", avg)
	}
}

// mixedBatch is the serving ladder's cluster call: 8 pushes of uniform
// rank alternating with 8 pops.
func mixedBatch(rng *rand.Rand, meta *uint64, ops []wire.Op) {
	for i := range ops {
		if i%2 == 1 {
			ops[i] = wire.Op{Kind: wire.OpPop}
			continue
		}
		*meta++
		ops[i] = wire.Op{Kind: wire.OpPush, Value: rng.Uint64() % (1 << 20), Meta: *meta}
	}
}

// TestClientPopRoundsPerPop pins what the bounded batch buys: on two
// rank-band nodes under 8-push/8-pop calls, a call's pops cost a round
// per node that holds part of the answer, not a round per pop — and not
// a round per shard boundary inside a node either, because a node's
// bounded pops merge across its shards. At 1, 2 and 4 shards a node the
// figure is the same and at most 0.3 rounds per OK pop.
func TestClientPopRoundsPerPop(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testClientPopRoundsPerPop(t, shards) })
	}
}

func testClientPopRoundsPerPop(t *testing.T, shards int) {
	m, _ := startServedMap(t, 2, shards, rankMap2)
	cl := newTestClient(t, m)
	golden := refpq.New()
	rng := rand.New(rand.NewSource(5))
	var meta uint64
	ops := make([]wire.Op, 16)
	for i := 0; i < 16; i++ { // prefill: 128 pushes
		for j := range ops {
			meta++
			ops[j] = wire.Op{Kind: wire.OpPush, Value: rng.Uint64() % (1 << 20), Meta: meta}
		}
		lockstepDo(t, cl, golden, ops)
	}
	before := cl.Stats()
	const calls = 200
	for i := 0; i < calls; i++ {
		mixedBatch(rng, &meta, ops)
		lockstepDo(t, cl, golden, ops)
	}
	after := cl.Stats()
	var pops uint64
	for id, n := range after.PerNode {
		pops += n.Pops - before.PerNode[id].Pops
	}
	rounds := after.PopRounds - before.PopRounds
	if pops != calls*8 {
		t.Fatalf("%d OK pops, want %d", pops, calls*8)
	}
	per := float64(rounds) / float64(pops)
	if per > 0.3 {
		t.Fatalf("%d pop rounds for %d pops = %.3f per pop, want <= 0.3", rounds, pops, per)
	}
	t.Logf("%d pop rounds for %d pops = %.3f per pop", rounds, pops, per)
}

// BenchmarkClusterDo is one routing client against two in-process
// rank-band nodes over loopback, 8 pushes + 8 pops per call at a
// steady fill: the cluster rung of the serving ladder in miniature.
func BenchmarkClusterDo(b *testing.B) {
	m, _ := startServedMap(b, 2, 1, rankMap2)
	cl := newTestClient(b, m)
	rng := rand.New(rand.NewSource(1))
	var meta uint64
	ops := make([]wire.Op, 16)
	for i := 0; i < 32; i++ {
		for j := range ops {
			meta++
			ops[j] = wire.Op{Kind: wire.OpPush, Value: rng.Uint64() % (1 << 20), Meta: meta}
		}
		if _, err := cl.Do(ops); err != nil {
			b.Fatal(err)
		}
	}
	before := cl.Stats().PopRounds
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mixedBatch(rng, &meta, ops)
		res, err := cl.Do(ops)
		if err != nil {
			b.Fatal(err)
		}
		for j, r := range res {
			if r.Status != wire.StatusOK {
				b.Fatalf("op %d: %v", j, r.Status)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cl.Stats().PopRounds-before)/float64(8*b.N), "rounds/pop")
}
