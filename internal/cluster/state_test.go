package cluster

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/wire"
)

// startNode boots an engine + wire server with the cluster state wired
// in (owner gate + map handlers) on a loopback port. The caller's map
// is the node's bootstrap; shutdown happens via t.Cleanup.
func startNode(t *testing.T, m *Map, id uint32) (string, *State, *engine.Engine) {
	t.Helper()
	eng, err := engine.New(engine.Config{Shards: 2, Order: 2, Levels: 10})
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewState(m, id)
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	srv := wire.NewServer(eng)
	srv.SetOwnerGate(func(op wire.Op) (bool, uint64) {
		return st.Owns(op.Value, op.Meta)
	})
	srv.SetClusterHandlers(st.EncodedIfNewer, st.OfferEncoded)
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
	return ln.Addr().String(), st, eng
}

func TestStateOfferDominance(t *testing.T) {
	m := testMap()
	st, err := NewState(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	changes := 0
	st.SetOnChange(func(*Map) { changes++ })

	older := m.Clone()
	if st.Offer(older) {
		t.Fatal("adopted a map that is not newer")
	}
	newer := m.Clone()
	newer.Version++
	if !st.Offer(newer) {
		t.Fatal("refused a strictly newer map")
	}
	if st.Version() != m.Version+1 || st.Adopts() != 1 || changes != 1 {
		t.Fatalf("version=%d adopts=%d changes=%d", st.Version(), st.Adopts(), changes)
	}
	// The state cloned on adoption: mutating the offered map afterwards
	// must not reach through.
	newer.Nodes[0].Addrs[0] = "mutated"
	if st.Current().Nodes[0].Addrs[0] == "mutated" {
		t.Fatal("state aliases the offered map")
	}
}

func TestStatePromoteSelf(t *testing.T) {
	m := testMap()
	st, err := NewState(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	before := st.Current().ByID(2).Epoch
	nm := st.PromoteSelf()
	if nm.Version != m.Version+1 {
		t.Fatalf("promotion version %d, want %d", nm.Version, m.Version+1)
	}
	if got := st.Current().ByID(2).Epoch; got != before+1 {
		t.Fatalf("promotion epoch %d, want %d", got, before+1)
	}
	// The minted map dominates the old one — peers will adopt it.
	if Compare(st.Current(), m) <= 0 {
		t.Fatal("promoted map does not dominate its predecessor")
	}
}

func TestStateOwns(t *testing.T) {
	m := testMap() // bands: 1:[0,1000) 2:[1000,500000) 7:[500000,...]
	st, err := NewState(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if owned, ver := st.Owns(1000, 0); !owned || ver != m.Version {
		t.Fatalf("Owns(1000) = %v, %d", owned, ver)
	}
	if owned, _ := st.Owns(999, 0); owned {
		t.Fatal("Owns(999) should belong to node 1")
	}
	// A map that drops this node means it owns nothing — ownership
	// transfer mid-flight.
	dropped := m.Clone()
	dropped.Version++
	dropped.Nodes = dropped.Nodes[:2] // ids 1, 2 remain... drop node 7 instead
	st2, err := NewState(m, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Offer(dropped) {
		t.Fatal("offer refused")
	}
	if owned, ver := st2.Owns(700000, 0); owned || ver != dropped.Version {
		t.Fatalf("dropped node still owns: %v, %d", owned, ver)
	}
}

func TestStateOfferEncoded(t *testing.T) {
	m := testMap()
	st, err := NewState(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt bytes adopt nothing and answer with the local map.
	reply := st.OfferEncoded([]byte{1, 2, 3})
	if reply == nil {
		t.Fatal("corrupt offer should be answered with the local map")
	}
	if got, err := Decode(reply); err != nil || Compare(got, m) != 0 {
		t.Fatalf("reply decode: %v", err)
	}
	// A newer offer is adopted and answered with nil.
	newer := m.Clone()
	newer.Version++
	if reply := st.OfferEncoded(newer.Encode(nil)); reply != nil {
		t.Fatal("newer offer should be adopted silently")
	}
	if st.Version() != newer.Version {
		t.Fatalf("version %d after adoption", st.Version())
	}
	// An older offer is refused and answered with the newer local map.
	reply = st.OfferEncoded(m.Encode(nil))
	if reply == nil {
		t.Fatal("older offer should be answered with the local map")
	}
	if got, _ := Decode(reply); got.Version != newer.Version {
		t.Fatalf("reply version %d", got.Version)
	}
}

// TestWireMapExchange exercises the TClusterHello/TClusterMap frames
// against a real server: fetch, conditional fetch, offer-adopt and
// offer-refused round trips.
func TestWireMapExchange(t *testing.T) {
	m := testMap()
	m.Nodes = m.Nodes[:1] // single node is enough for the exchange
	m.Nodes[0].Addrs = []string{"127.0.0.1:1"}
	addr, st, _ := startNode(t, m, 1)

	got, err := FetchMap(addr, 0, 2*time.Second)
	if err != nil || got == nil {
		t.Fatalf("fetch: %v, %v", got, err)
	}
	if Compare(got, m) != 0 {
		t.Fatalf("fetched map version %d", got.Version)
	}
	// Nothing newer than what we already hold.
	got, err = FetchMap(addr, m.Version, 2*time.Second)
	if err != nil || got != nil {
		t.Fatalf("conditional fetch: %v, %v", got, err)
	}

	newer := m.Clone()
	newer.Version++
	reply, err := OfferMap(addr, newer, 2*time.Second)
	if err != nil || reply != nil {
		t.Fatalf("offer newer: %v, %v", reply, err)
	}
	if st.Version() != newer.Version {
		t.Fatalf("node did not adopt: version %d", st.Version())
	}
	// Offering the stale map back gets the newer one in reply.
	reply, err = OfferMap(addr, m, 2*time.Second)
	if err != nil || reply == nil {
		t.Fatalf("offer older: %v, %v", reply, err)
	}
	if reply.Version != newer.Version {
		t.Fatalf("reply version %d", reply.Version)
	}
}

// TestGossipConvergence injects a newer map into one node and checks
// the gossiper spreads it to every peer named by the map.
func TestGossipConvergence(t *testing.T) {
	// Build the real map from three pre-bound listeners.
	base := testMap()
	addrA, stA, _ := startNode(t, base, 1)
	addrB, stB, _ := startNode(t, base, 2)
	addrC, stC, _ := startNode(t, base, 7)
	live := base.Clone()
	live.Version++
	for i, a := range []string{addrA, addrB, addrC} {
		live.Nodes[i].Addrs = []string{a}
	}
	if !stA.Offer(live) {
		t.Fatal("node A refused the live map")
	}

	g := NewGossiper(GossiperConfig{
		State:     stA,
		SelfAddrs: []string{addrA},
		Interval:  10 * time.Millisecond,
		Timeout:   time.Second,
	})
	go g.Run()
	defer g.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for stB.Version() != live.Version || stC.Version() != live.Version {
		if time.Now().After(deadline) {
			t.Fatalf("gossip never converged: B=%d C=%d want %d",
				stB.Version(), stC.Version(), live.Version)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOwnerGateRefusal checks the wire-level contract: a push outside
// the owned band is refused with StatusNotOwner carrying the node's
// map version, while pops and peeks pass the gate.
func TestOwnerGateRefusal(t *testing.T) {
	m := testMap() // node 2 owns [1000, 500000)
	addr, _, _ := startNode(t, m, 2)
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res, err := c.Do([]wire.Op{
		{Kind: wire.OpPush, Value: 2000, Meta: 1}, // owned
		{Kind: wire.OpPush, Value: 5, Meta: 2},    // node 1's band
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status != wire.StatusOK {
		t.Fatalf("owned push: %v", res[0].Status)
	}
	if res[1].Status != wire.StatusNotOwner || res[1].Value != m.Version {
		t.Fatalf("foreign push: %v value %d, want not-owner with map version %d",
			res[1].Status, res[1].Value, m.Version)
	}
	// Pops are never gated, and the refused push must not have applied.
	res, err = c.Do([]wire.Op{{Kind: wire.OpPop}, {Kind: wire.OpPeek}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status != wire.StatusOK || res[0].Value != 2000 {
		t.Fatalf("pop: %v value %d", res[0].Status, res[0].Value)
	}
	// The peek is answered from post-batch state: the pop above drained
	// the only element.
	if res[1].Status != wire.StatusEmpty {
		t.Fatalf("peek after pop: %v", res[1].Status)
	}
}

func TestNewStateRejectsForeignID(t *testing.T) {
	if _, err := NewState(testMap(), 99); err == nil {
		t.Fatal("NewState accepted an id the map does not contain")
	}
	bad := testMap()
	bad.Version = 0
	if _, err := NewState(bad, 1); !errors.Is(err, ErrBadMap) {
		t.Fatalf("NewState on invalid map: %v", err)
	}
}
