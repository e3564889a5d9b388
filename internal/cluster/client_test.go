package cluster

import (
	"context"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/refpq"
	"repro/internal/wire"
)

// startServedMap binds n loopback listeners, lets the caller build the
// cluster map from the real addresses, then serves every node of that
// map (an engine of the given shard count + owner gate + map
// handlers). Teardown via t.Cleanup.
func startServedMap(t testing.TB, n, shards int, build func(addrs []string) *Map) (*Map, []*State) {
	t.Helper()
	return startServedMapWrapped(t, n, shards, build, nil)
}

// startServedMapWrapped is startServedMap with each node serving on
// wrap(its listener) when wrap is not nil.
func startServedMapWrapped(t testing.TB, n, shards int, build func(addrs []string) *Map, wrap func(net.Listener) net.Listener) (*Map, []*State) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	m := build(addrs)
	if err := m.Validate(); err != nil {
		t.Fatalf("built map invalid: %v", err)
	}
	states := make([]*State, n)
	for i, nd := range m.Nodes {
		eng, err := engine.New(engine.Config{Shards: shards, Order: 2, Levels: 10})
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewState(m, nd.ID)
		if err != nil {
			t.Fatal(err)
		}
		states[i] = st
		srv := wire.NewServer(eng)
		srv.SetOwnerGate(func(op wire.Op) (bool, uint64) {
			return st.Owns(op.Value, op.Meta)
		})
		srv.SetClusterHandlers(st.EncodedIfNewer, st.OfferEncoded)
		ln := lns[i]
		if wrap != nil {
			ln = wrap(ln)
		}
		go srv.Serve(ln)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
			eng.Close()
		})
	}
	return m, states
}

// rankMap3 partitions a RankBits-bit rank space over three nodes.
func rankMap3(addrs []string) *Map {
	const span = uint64(1) << 20
	return &Map{
		Version:  1,
		Mode:     ModeRank,
		RankBits: 20,
		Nodes: []Node{
			{ID: 1, Epoch: 1, Start: 0, Addrs: []string{addrs[0]}},
			{ID: 2, Epoch: 1, Start: span / 3, Addrs: []string{addrs[1]}},
			{ID: 3, Epoch: 1, Start: 2 * span / 3, Addrs: []string{addrs[2]}},
		},
	}
}

// hashMap3 partitions the full 64-bit hash space over three nodes.
func hashMap3(addrs []string) *Map {
	third := uint64(math.MaxUint64) / 3
	return &Map{
		Version: 1,
		Mode:    ModeHash,
		Nodes: []Node{
			{ID: 1, Epoch: 1, Start: 0, Addrs: []string{addrs[0]}},
			{ID: 2, Epoch: 1, Start: third, Addrs: []string{addrs[1]}},
			{ID: 3, Epoch: 1, Start: 2 * third, Addrs: []string{addrs[2]}},
		},
	}
}

func newTestClient(t testing.TB, m *Map) *Client {
	t.Helper()
	cl, err := NewClient(Options{
		Map:            m,
		RequestTimeout: 2 * time.Second,
		BaseDelay:      2 * time.Millisecond,
		MaxDelay:       50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// TestClientDifferential runs a sequential mixed workload through the
// routing client over three nodes and locksteps it against a single
// golden priority queue: every acked pop must return exactly the golden
// global minimum — the cross-node strict merge is exact for a
// sequential caller, in both routing modes.
func TestClientDifferential(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func([]string) *Map
	}{
		{"rank", rankMap3},
		{"hash", hashMap3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, _ := startServedMap(t, 3, 2, tc.build)
			cl := newTestClient(t, m)
			golden := refpq.New()
			rng := rand.New(rand.NewSource(42))
			var meta uint64

			for i := 0; i < 2500; i++ {
				if rng.Intn(10) < 6 {
					v := rng.Uint64() % (1 << 20)
					meta++
					res, err := cl.Push(v, meta)
					if err != nil {
						t.Fatalf("op %d push: %v", i, err)
					}
					switch res.Status {
					case wire.StatusOK:
						golden.Push(refpq.Entry{Value: v, Meta: meta})
					case wire.StatusFull, wire.StatusBackpressure, wire.StatusOverloaded:
						// acked-not-applied
					default:
						t.Fatalf("op %d push status %v", i, res.Status)
					}
					continue
				}
				res, err := cl.PopMin()
				if err != nil {
					t.Fatalf("op %d pop: %v", i, err)
				}
				switch res.Status {
				case wire.StatusOK:
					if golden.Len() == 0 {
						t.Fatalf("op %d popped %d from an empty golden queue", i, res.Value)
					}
					want := golden.PopMin()
					if res.Value != want.Value {
						t.Fatalf("op %d pop = %d, golden min %d", i, res.Value, want.Value)
					}
				case wire.StatusEmpty:
					if golden.Len() != 0 {
						t.Fatalf("op %d pop empty with %d golden elements", i, golden.Len())
					}
				default:
					t.Fatalf("op %d pop status %v", i, res.Status)
				}
			}
			// Final drain: the cluster and the golden queue empty in the
			// same exact order.
			for golden.Len() > 0 {
				res, err := cl.PopMin()
				if err != nil || res.Status != wire.StatusOK {
					t.Fatalf("drain: %v %v with %d left", res.Status, err, golden.Len())
				}
				if want := golden.PopMin(); res.Value != want.Value {
					t.Fatalf("drain pop = %d, golden min %d", res.Value, want.Value)
				}
			}
			if res, err := cl.PopMin(); err != nil || res.Status != wire.StatusEmpty {
				t.Fatalf("post-drain pop: %v %v", res.Status, err)
			}
		})
	}
}

// TestClientStaleHeadRace pops an element out from under the routing
// client's head cache through a direct per-node connection: the
// client's next PopMin hits StatusEmpty on the node it believed held
// the minimum, and must recover by re-probing and returning the true
// global minimum.
func TestClientStaleHeadRace(t *testing.T) {
	m, _ := startServedMap(t, 3, 2, rankMap3)
	cl := newTestClient(t, m)

	for _, v := range []uint64{10, 20, 800000} { // 10,20 → node 1; 800000 → node 3
		if res, err := cl.Push(v, v); err != nil || res.Status != wire.StatusOK {
			t.Fatalf("push %d: %v %v", v, res.Status, err)
		}
	}
	if res, err := cl.PopMin(); err != nil || res.Value != 10 {
		t.Fatalf("first pop: %v %v", res, err)
	}
	// The pop's piggybacked peek cached node 1's next head (20). Steal
	// it behind the client's back.
	direct, err := wire.Dial(m.Nodes[0].Addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	dres, err := direct.Do([]wire.Op{{Kind: wire.OpPop}})
	if err != nil || dres[0].Status != wire.StatusOK || dres[0].Value != 20 {
		t.Fatalf("direct steal: %v %v", dres, err)
	}
	// The client still believes node 1 heads at 20; it must survive the
	// stale hit and deliver the true minimum from node 3.
	if res, err := cl.PopMin(); err != nil || res.Status != wire.StatusOK || res.Value != 800000 {
		t.Fatalf("pop after steal: %+v %v", res, err)
	}
	if res, err := cl.PopMin(); err != nil || res.Status != wire.StatusEmpty {
		t.Fatalf("pop on drained cluster: %+v %v", res, err)
	}
}

// TestClientEmptyBandNode drives traffic that never lands on the middle
// node: the merge must skip past the empty band without stalling, and
// routing must never have pushed to it.
func TestClientEmptyBandNode(t *testing.T) {
	m, _ := startServedMap(t, 3, 2, rankMap3)
	cl := newTestClient(t, m)

	vals := []uint64{5, 700001, 17, 900000, 2, 1048575, 44, 800000}
	for i, v := range vals { // all in node 1's or node 3's band
		if res, err := cl.Push(v, uint64(i)); err != nil || res.Status != wire.StatusOK {
			t.Fatalf("push %d: %v %v", v, res.Status, err)
		}
	}
	sorted := append([]uint64{}, vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, want := range sorted {
		res, err := cl.PopMin()
		if err != nil || res.Status != wire.StatusOK || res.Value != want {
			t.Fatalf("pop = %+v %v, want %d", res, err, want)
		}
	}
	if res, err := cl.PopMin(); err != nil || res.Status != wire.StatusEmpty {
		t.Fatalf("post-drain pop: %+v %v", res, err)
	}
	if ps := cl.Stats().PerNode[2].Pushes; ps != 0 {
		t.Fatalf("empty-band node received %d pushes", ps)
	}
}

// TestClientRedirectRefresh bootstraps the client with a stale map
// whose bands disagree with the cluster's: the owner refuses the push
// with StatusNotOwner, and the client must refresh to the live map and
// re-route within the same call.
func TestClientRedirectRefresh(t *testing.T) {
	m, _ := startServedMap(t, 3, 2, func(addrs []string) *Map {
		m := rankMap3(addrs)
		m.Version = 2 // the cluster serves v2
		return m
	})
	stale := m.Clone()
	stale.Version = 1
	// v1 hands nearly the whole space to node 1; value 900000 routes to
	// node 1 under v1 but belongs to node 3 under v2.
	stale.Nodes[1].Start = 1000000
	stale.Nodes[2].Start = 1000001

	cl := newTestClient(t, stale)
	res, err := cl.Push(900000, 7)
	if err != nil || res.Status != wire.StatusOK {
		t.Fatalf("push through redirect: %+v %v", res, err)
	}
	st := cl.Stats()
	if st.Redirects == 0 || st.MapRefreshes == 0 || st.MapVersion != m.Version {
		t.Fatalf("stats after redirect: %+v", st)
	}
	// The element landed where v2 says it lives.
	if res, err := cl.PopMin(); err != nil || res.Value != 900000 {
		t.Fatalf("pop: %+v %v", res, err)
	}
	if ps := cl.Stats().PerNode[3].Pushes; ps == 0 {
		t.Fatal("re-routed push never reached the v2 owner")
	}
}

// TestClientConcurrentConservation hammers one shared client from
// several goroutines — half of them one op a call, half in batches
// through Do — and checks conservation: every acked push is
// popped exactly once, no loss, no duplication. Global order is
// best-effort under concurrency, so only the multiset is asserted.
// Primarily a data-race exercise for the head cache and redirect path.
func TestClientConcurrentConservation(t *testing.T) {
	m, _ := startServedMap(t, 3, 2, rankMap3)
	cl := newTestClient(t, m)

	const workers, opsPer = 4, 150
	var mu sync.Mutex
	var pushed, popped []uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			for i := 0; i < opsPer; i++ {
				if w%2 == 1 {
					// Odd workers go through Do, eight ops a call: the
					// bounded runs and the pooled scratch under contention.
					ops := make([]wire.Op, 8)
					for j := range ops {
						ops[j] = wire.Op{Kind: wire.OpPop}
						if rng.Intn(10) < 6 {
							ops[j] = wire.Op{Kind: wire.OpPush, Value: rng.Uint64() % (1 << 20), Meta: uint64(w)<<32 | uint64(i*8+j)}
						}
					}
					res, err := cl.Do(ops)
					if err != nil {
						t.Errorf("worker %d Do: %v", w, err)
						return
					}
					mu.Lock()
					for j, r := range res {
						switch {
						case r.Status != wire.StatusOK:
						case ops[j].Kind == wire.OpPush:
							pushed = append(pushed, ops[j].Value)
						default:
							popped = append(popped, r.Value)
						}
					}
					mu.Unlock()
					continue
				}
				if rng.Intn(10) < 6 {
					v := rng.Uint64() % (1 << 20)
					meta := uint64(w)<<32 | uint64(i)
					res, err := cl.Push(v, meta)
					if err != nil {
						t.Errorf("worker %d push: %v", w, err)
						return
					}
					if res.Status == wire.StatusOK {
						mu.Lock()
						pushed = append(pushed, v)
						mu.Unlock()
					}
					continue
				}
				res, err := cl.PopMin()
				if err != nil {
					t.Errorf("worker %d pop: %v", w, err)
					return
				}
				if res.Status == wire.StatusOK {
					mu.Lock()
					popped = append(popped, res.Value)
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Drain the remainder sequentially.
	for {
		res, err := cl.PopMin()
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
		if res.Status == wire.StatusEmpty {
			break
		}
		popped = append(popped, res.Value)
	}
	sort.Slice(pushed, func(i, j int) bool { return pushed[i] < pushed[j] })
	sort.Slice(popped, func(i, j int) bool { return popped[i] < popped[j] })
	if len(pushed) != len(popped) {
		t.Fatalf("conservation: %d acked pushes, %d pops", len(pushed), len(popped))
	}
	for i := range pushed {
		if pushed[i] != popped[i] {
			t.Fatalf("multiset mismatch at %d: pushed %d popped %d", i, pushed[i], popped[i])
		}
	}
}
