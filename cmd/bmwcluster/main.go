// bmwcluster is the multi-node acceptance harness: it boots an
// in-process cluster of bmwd nodes (internal/node) — each a primary with a
// sync-replicating hot standby — sharing a versioned cluster map,
// drives mixed traffic through the routing client in golden lockstep
// against a reference queue, kills a primary mid-stream (promotion
// must bump the map epoch and spread by gossip while the client
// converges on its own), rebalances the rank bands with a new map
// version (pushes must re-route via StatusNotOwner redirects), and
// finally drains the whole cluster through the cross-node strict
// merge, checking global pop order, zero acknowledged-op loss and
// zero duplicate applies.
//
// The workload is sequential single-op traffic, so the cluster is
// sequentially consistent with the reference heap: an acked push is
// visible to the next pop, and every acked pop must return exactly
// the reference PopMin value. Any divergence — an op lost across the
// failover, applied twice, or popped out of global order — breaks the
// lockstep and fails the run.
//
// It exits 0 only if every check passes, and always writes a
// bmwcluster/v1 JSON evidence file into -evidence.
//
// Examples:
//
//	bmwcluster                       # 3 nodes, 2000 ops, kill + rebalance
//	bmwcluster -nodes 4 -ops 5000 -evidence /tmp/cluster
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/node"
	"repro/internal/refpq"
	"repro/internal/wire"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bmwcluster: "+format+"\n", args...)
	os.Exit(1)
}

// start boots one cluster member (internal/node) on a pre-bound
// listener — the listeners exist before the map so the map can name
// their addresses. A group's standby follows its primary and holds the
// live map too, so promotion can mint its successor.
func (h *harness) start(m *cluster.Map, id uint32, follow string, ln net.Listener) (*node.Node, error) {
	return node.Start(node.Config{
		Engine:         h.geom,
		Listener:       ln,
		Log:            h.log,
		ClusterMap:     m,
		ClusterNode:    id,
		GossipInterval: 100 * time.Millisecond,
		Follow:         follow,
		ReplSync:       true,
		SyncTimeout:    10 * time.Second,
		DialRetry:      5 * time.Millisecond,
	})
}

// group is one replica group: the serving head plus its standby.
type group struct {
	id      uint32
	prim    *node.Node
	standby *node.Node // nil once promoted
}

// evidence is the bmwcluster/v1 result document.
type evidence struct {
	Schema          string            `json:"schema"`
	Result          string            `json:"result"`
	Errors          []string          `json:"errors,omitempty"`
	Nodes           int               `json:"nodes"`
	Mode            string            `json:"mode"`
	Ops             int               `json:"ops"`
	AckedPushes     uint64            `json:"acked_pushes"`
	AckedPops       uint64            `json:"acked_pops"`
	KillCycles      int               `json:"kill_cycles"`
	FailoverMs      []float64         `json:"failover_ms"`
	PromotedVersion uint64            `json:"promoted_map_version"`
	GossipSpreadMs  []float64         `json:"gossip_spread_ms"`
	RebalanceVer    uint64            `json:"rebalance_map_version"`
	Redirects       uint64            `json:"redirects"`
	MapRefreshes    uint64            `json:"map_refreshes"`
	ClientMapVer    uint64            `json:"client_map_version"`
	FinalDrain      int               `json:"final_drain"`
	PerNodeOps      map[string]uint64 `json:"per_node_ops"`
	DurationMs      float64           `json:"duration_ms"`
}

// harness owns the cluster's moving parts and the golden lockstep
// state.
type harness struct {
	geom   engine.Config
	rng    *rand.Rand
	cl     *cluster.Client
	golden *refpq.Queue
	groups []*group
	ev     *evidence
	log    slog.Handler // nil unless -v
	pushes uint64
	pops   uint64
}

func (h *harness) logf(format string, args ...any) {
	if h.log != nil {
		fmt.Fprintf(os.Stderr, "bmwcluster: "+format+"\n", args...)
	}
}

// oneOp issues one op through the routing client and applies its
// acked outcome to the golden queue, failing on any divergence.
func (h *harness) oneOp() error {
	push := h.golden.Len() == 0 || h.rng.Float64() < 0.55
	if push {
		v := h.rng.Uint64() >> 34 // 30-bit rank, matching the map's RankBits
		meta := h.pushes
		r, err := h.cl.Push(v, meta)
		if err != nil {
			return fmt.Errorf("push failed permanently: %w", err)
		}
		switch r.Status {
		case wire.StatusOK:
			h.golden.Push(refpq.Entry{Value: v, Meta: meta})
			h.pushes++
		case wire.StatusFull, wire.StatusBackpressure, wire.StatusOverloaded:
			// Acked as not-applied.
		default:
			return fmt.Errorf("push acked with status %v", r.Status)
		}
		return nil
	}
	r, err := h.cl.PopMin()
	if err != nil {
		return fmt.Errorf("pop failed permanently: %w", err)
	}
	switch {
	case r.Status == wire.StatusOK:
		if h.golden.Len() == 0 {
			return fmt.Errorf("pop returned value %d from an empty reference queue — duplicated apply", r.Value)
		}
		want := h.golden.PopMin()
		if r.Value != want.Value {
			return fmt.Errorf("pop returned value %d, reference says %d — global order broken", r.Value, want.Value)
		}
		h.pops++
	case r.Status == wire.StatusEmpty:
		if h.golden.Len() != 0 {
			return fmt.Errorf("pop says empty, reference holds %d — acked-op loss", h.golden.Len())
		}
	default:
		return fmt.Errorf("pop acked with status %v", r.Status)
	}
	return nil
}

// waitReplicated blocks until g's standby has acknowledged the
// primary's full log.
func (h *harness) waitReplicated(g *group) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		if tip := g.prim.Repl().LogSeq(); g.prim.Repl().AckSeq() == tip && g.standby.Repl().Ready() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node %d standby never caught up: ack %d, tip %d",
				g.id, g.prim.Repl().AckSeq(), g.prim.Repl().LogSeq())
		}
		time.Sleep(time.Millisecond)
	}
}

// waitMapSpread blocks until every live member's state holds a map at
// or past version, and returns how long the spread took.
func (h *harness) waitMapSpread(version uint64) (time.Duration, error) {
	t0 := time.Now()
	deadline := t0.Add(15 * time.Second)
	for {
		behind := 0
		for _, g := range h.groups {
			for _, mb := range []*node.Node{g.prim, g.standby} {
				if mb != nil && mb.Cluster().Version() < version {
					behind++
				}
			}
		}
		if behind == 0 {
			return time.Since(t0), nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("map version %d never spread: %d member(s) still behind", version, behind)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// killCycle kills one group's primary mid-stream: the standby
// promotes (minting map version+1 with its epoch bumped), gossip
// spreads the successor map, and the client converges with zero
// acked-op loss — all verified by the lockstep staying intact.
func (h *harness) killCycle(g *group) error {
	for i := 0; i < 50; i++ {
		if err := h.oneOp(); err != nil {
			return fmt.Errorf("pre-kill: %w", err)
		}
	}
	if err := h.waitReplicated(g); err != nil {
		return err
	}
	wantVer := g.standby.Cluster().Version() + 1

	h.logf("killing node %d primary %s", g.id, g.prim.Addr())
	g.prim.Kill()
	t0 := time.Now()
	g.standby.Promote()
	g.prim = g.standby
	g.standby = nil

	// The client is not told: its per-node connection must fail over to
	// the standby on its own, and the first post-kill op lands once
	// promotion finishes serving.
	if err := h.oneOp(); err != nil {
		return fmt.Errorf("post-promotion: %w", err)
	}
	failover := time.Since(t0)
	h.ev.FailoverMs = append(h.ev.FailoverMs, float64(failover.Microseconds())/1000)
	h.ev.KillCycles++

	if got := g.prim.Cluster().Version(); got != wantVer {
		return fmt.Errorf("promotion minted map version %d, want %d", got, wantVer)
	}
	h.ev.PromotedVersion = wantVer
	spread, err := h.waitMapSpread(wantVer)
	if err != nil {
		return err
	}
	h.ev.GossipSpreadMs = append(h.ev.GossipSpreadMs, float64(spread.Microseconds())/1000)
	h.logf("failover in %v, map version %d spread in %v", failover, wantVer, spread)

	for i := 0; i < 50; i++ {
		if err := h.oneOp(); err != nil {
			return fmt.Errorf("post-failover traffic: %w", err)
		}
	}
	return nil
}

// rebalance mints a successor map with every interior band boundary
// shifted and offers it to one node; gossip spreads it, and continued
// pushes must re-route via StatusNotOwner redirects (elements already
// queued under the old bands stay put — the strict merge drains them
// from wherever they sit).
func (h *harness) rebalance() error {
	cur, err := cluster.FetchMap(h.groups[0].prim.Addr(), 0, 2*time.Second)
	if err != nil {
		return fmt.Errorf("rebalance: fetch map: %w", err)
	}
	if cur == nil {
		return fmt.Errorf("rebalance: node served no map")
	}
	next := cur.Clone()
	next.Version++
	span := uint64(1) << next.RankBits
	if next.Mode == cluster.ModeHash {
		span = 0 // wraps: full 64-bit space
	}
	for i := 1; i < len(next.Nodes); i++ {
		// Shift each interior boundary up by 1/(4n) of the space,
		// clamped below the next boundary.
		shift := (span - 1) / uint64(4*len(next.Nodes))
		moved := next.Nodes[i].Start + shift
		if i+1 < len(next.Nodes) && moved >= next.Nodes[i+1].Start {
			moved = next.Nodes[i+1].Start - 1
		}
		next.Nodes[i].Start = moved
	}
	if err := next.Validate(); err != nil {
		return fmt.Errorf("rebalance: bad successor map: %w", err)
	}
	if _, err := cluster.OfferMap(h.groups[0].prim.Addr(), next, 2*time.Second); err != nil {
		return fmt.Errorf("rebalance: offer: %w", err)
	}
	spread, err := h.waitMapSpread(next.Version)
	if err != nil {
		return err
	}
	h.ev.RebalanceVer = next.Version
	h.ev.GossipSpreadMs = append(h.ev.GossipSpreadMs, float64(spread.Microseconds())/1000)
	h.logf("rebalance map version %d spread in %v", next.Version, spread)

	// Traffic across the moved boundaries: the client still routes by
	// the old map until a refused push teaches it otherwise.
	before := h.cl.Stats().Redirects
	for i := 0; i < 200; i++ {
		if err := h.oneOp(); err != nil {
			return fmt.Errorf("post-rebalance traffic: %w", err)
		}
	}
	after := h.cl.Stats()
	if after.Redirects == before {
		return fmt.Errorf("rebalance moved every boundary but the client saw no StatusNotOwner redirect")
	}
	if after.MapVersion < next.Version {
		return fmt.Errorf("client holds map version %d after redirects, want >= %d", after.MapVersion, next.Version)
	}
	return nil
}

// finalDrain pops the whole cluster through the strict merge and
// checks the full global sequence against the reference queue.
func (h *harness) finalDrain() error {
	n := 0
	for {
		r, err := h.cl.PopMin()
		if err != nil {
			return fmt.Errorf("final drain: %w", err)
		}
		if r.Status == wire.StatusEmpty {
			break
		}
		if r.Status != wire.StatusOK {
			return fmt.Errorf("final drain status %v", r.Status)
		}
		if h.golden.Len() == 0 {
			return fmt.Errorf("final drain returned value %d beyond the reference — duplicated apply", r.Value)
		}
		if want := h.golden.PopMin(); r.Value != want.Value {
			return fmt.Errorf("final drain value %d, reference says %d — global order broken", r.Value, want.Value)
		}
		n++
	}
	if h.golden.Len() != 0 {
		return fmt.Errorf("cluster empty but reference holds %d elements — acked-op loss", h.golden.Len())
	}
	h.ev.FinalDrain = n
	return nil
}

func main() {
	var (
		nodes   = flag.Int("nodes", 3, "replica groups in the cluster (each a primary + hot standby)")
		ops     = flag.Int("ops", 2000, "mixed lockstep ops in the main traffic phase")
		shards  = flag.Int("shards", 2, "engine shards per node")
		levels  = flag.Int("l", 10, "tree levels (capacity)")
		mode    = flag.String("mode", "rank", "cluster routing mode: rank or hash")
		kill    = flag.Bool("kill", true, "kill a primary mid-stream and require promotion + epoch bump")
		rebal   = flag.Bool("rebalance", true, "shift the band boundaries mid-stream and require client re-routing")
		seed    = flag.Int64("seed", 1, "workload seed")
		evDir   = flag.String("evidence", "cluster-evidence", "directory for the bmwcluster/v1 JSON evidence file")
		verbose = flag.Bool("v", false, "log phases and failovers")
	)
	flag.Parse()

	clMode, err := cluster.ParseMode(*mode)
	if err != nil {
		fatalf("%v", err)
	}
	geom := engine.Config{Shards: *shards, Order: 2, Levels: *levels}

	ev := &evidence{Schema: "bmwcluster/v1", Nodes: *nodes, Mode: clMode.String(), Ops: *ops}
	start := time.Now()
	runErr := run(geom, clMode, *nodes, *ops, *kill, *rebal, *seed, *verbose, ev)
	ev.DurationMs = float64(time.Since(start).Microseconds()) / 1000
	if runErr != nil {
		ev.Result = "fail"
		ev.Errors = append(ev.Errors, runErr.Error())
	} else {
		ev.Result = "pass"
	}

	if err := os.MkdirAll(*evDir, 0o755); err != nil {
		fatalf("evidence dir: %v", err)
	}
	path := filepath.Join(*evDir, "bmwcluster.json")
	b, _ := json.MarshalIndent(ev, "", "  ")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fatalf("write evidence: %v", err)
	}
	fmt.Printf("bmwcluster: %s — %d node(s), %d acked pushes, %d acked pops, %d kill cycle(s), %d redirect(s), %d drained, evidence in %s\n",
		ev.Result, ev.Nodes, ev.AckedPushes, ev.AckedPops, ev.KillCycles, ev.Redirects, ev.FinalDrain, path)
	if runErr != nil {
		fatalf("%v", runErr)
	}
}

func run(geom engine.Config, clMode cluster.Mode, nodes, ops int, kill, rebal bool, seed int64, verbose bool, ev *evidence) error {
	h := &harness{
		geom:   geom,
		rng:    rand.New(rand.NewSource(seed)),
		golden: refpq.New(),
		ev:     ev,
	}
	if verbose {
		h.log = slog.NewTextHandler(os.Stderr, nil)
	}

	// Listeners first: the map names real addresses, so every port is
	// bound before the map that advertises it exists.
	const rankBits = 30
	type pair struct{ prim, standby net.Listener }
	lns := make([]pair, nodes)
	for i := range lns {
		for _, which := range []*net.Listener{&lns[i].prim, &lns[i].standby} {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			*which = ln
			defer ln.Close()
		}
	}
	m := &cluster.Map{Version: 1, Mode: clMode}
	span := uint64(1) << rankBits
	if clMode == cluster.ModeRank {
		m.RankBits = rankBits
	} else {
		span = 0 // full 64-bit hash space; /nodes below uses wraparound width
	}
	width := (span - 1) / uint64(nodes)
	for i := 0; i < nodes; i++ {
		m.Nodes = append(m.Nodes, cluster.Node{
			ID:    uint32(i + 1),
			Epoch: 1,
			Start: uint64(i) * width,
			Addrs: []string{lns[i].prim.Addr().String(), lns[i].standby.Addr().String()},
		})
	}
	if err := m.Validate(); err != nil {
		return fmt.Errorf("bootstrap map: %w", err)
	}

	for i := 0; i < nodes; i++ {
		id := uint32(i + 1)
		prim, err := h.start(m, id, "", lns[i].prim)
		if err != nil {
			return err
		}
		g := &group{id: id, prim: prim}
		h.groups = append(h.groups, g)
		defer func() { g.prim.Kill() }()
		standby, err := h.start(m, id, prim.Addr(), lns[i].standby)
		if err != nil {
			return err
		}
		g.standby = standby
		defer func() {
			if g.standby != nil {
				g.standby.Kill()
			}
		}()
	}
	for _, g := range h.groups {
		if err := h.waitReplicated(g); err != nil {
			return err
		}
	}

	cl, err := cluster.NewClient(cluster.Options{
		Map:            m,
		RequestTimeout: 2 * time.Second,
		BaseDelay:      2 * time.Millisecond,
		MaxDelay:       100 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	h.cl = cl
	defer cl.Close()
	defer func() {
		s := cl.Stats()
		ev.Redirects = s.Redirects
		ev.MapRefreshes = s.MapRefreshes
		ev.ClientMapVer = s.MapVersion
		ev.AckedPushes = h.pushes
		ev.AckedPops = h.pops
		ev.PerNodeOps = map[string]uint64{}
		for id, ns := range s.PerNode {
			ev.PerNodeOps[fmt.Sprintf("node%d", id)] = ns.Ops
		}
	}()

	// Main mixed-traffic phase in golden lockstep.
	for i := 0; i < ops; i++ {
		if err := h.oneOp(); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}

	if kill {
		// Kill the middle group: its band has neighbours on both sides,
		// so post-failover routing and merging cross it.
		if err := h.killCycle(h.groups[len(h.groups)/2]); err != nil {
			return err
		}
	}
	if rebal {
		if err := h.rebalance(); err != nil {
			return err
		}
	}
	for _, g := range h.groups {
		if g.standby != nil {
			if err := h.waitReplicated(g); err != nil {
				return err
			}
		}
	}
	return h.finalDrain()
}
