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
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/node"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bmwcluster: "+format+"\n", args...)
	os.Exit(1)
}

// start boots one cluster member (internal/node) on a pre-bound
// listener — the listeners exist before the map so the map can name
// their addresses. A group's standby follows its primary and holds the
// live map too, so promotion can mint its successor.
func (s *scenario) start(m *cluster.Map, id uint32, follow string, ln net.Listener) (*node.Node, error) {
	return node.Start(node.Config{
		Engine:         s.cfg.geom,
		Listener:       ln,
		Log:            s.log,
		ClusterMap:     m,
		ClusterNode:    id,
		GossipInterval: 100 * time.Millisecond,
		Follow:         follow,
		ReplSync:       true,
		SyncTimeout:    10 * time.Second,
		DialRetry:      5 * time.Millisecond,
	})
}

// group is one replica group: the serving head plus its standby, nil
// once promoted.
type group struct {
	id uint32
	harness.Pair
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

// config is one run's flags.
type config struct {
	geom        engine.Config
	mode        cluster.Mode
	nodes, ops  int
	kill, rebal bool
	seed        int64
	verbose     bool
}

// scenario owns the cluster's moving parts and the golden lockstep.
type scenario struct {
	cfg    config
	rng    *rand.Rand
	cl     *cluster.Client
	golden *harness.Lockstep
	groups []*group
	ev     *evidence
	log    slog.Handler // nil unless -v
}

func (s *scenario) logf(format string, args ...any) {
	if s.log != nil {
		fmt.Fprintf(os.Stderr, "bmwcluster: "+format+"\n", args...)
	}
}

// oneOp issues one op through the routing client and applies its
// acked outcome to the golden lockstep, failing on any divergence.
func (s *scenario) oneOp() error {
	if s.golden.Len() == 0 || s.rng.Float64() < 0.55 {
		v, meta := s.rng.Uint64()>>34, s.golden.Pushes // 30-bit rank, matching the map's RankBits
		r, err := s.cl.Push(v, meta)
		if err != nil {
			return fmt.Errorf("push failed permanently: %w", err)
		}
		return s.golden.Push(v, meta, r.Status)
	}
	r, err := s.cl.PopMin()
	if err != nil {
		return fmt.Errorf("pop failed permanently: %w", err)
	}
	return s.golden.Pop(r)
}

// waitMapSpread blocks until every live member's state holds a map at
// or past version, and returns how long the spread took.
func (s *scenario) waitMapSpread(version uint64) (time.Duration, error) {
	t0 := time.Now()
	deadline := t0.Add(15 * time.Second)
	for {
		behind := 0
		for _, g := range s.groups {
			for _, mb := range []*node.Node{g.Primary, g.Standby} {
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
// promotes at the replicated tip (minting map version+1 with its epoch
// bumped), gossip spreads the successor map, and the client converges
// with zero acked-op loss — all verified by the lockstep staying
// intact.
func (s *scenario) killCycle(g *group) error {
	for i := 0; i < 50; i++ {
		if err := s.oneOp(); err != nil {
			return fmt.Errorf("pre-kill: %w", err)
		}
	}
	wantVer := g.Standby.Cluster().Version() + 1

	s.logf("killing node %d primary %s", g.id, g.Primary.Addr())
	_, killed, err := g.Failover()
	if err != nil {
		return fmt.Errorf("node %d: %w", g.id, err)
	}

	// The client is not told: its per-node connection must fail over to
	// the standby on its own, and the first post-kill op lands once
	// promotion finishes serving.
	if err := s.oneOp(); err != nil {
		return fmt.Errorf("post-promotion: %w", err)
	}
	failover := time.Since(killed)
	s.ev.FailoverMs = append(s.ev.FailoverMs, float64(failover.Microseconds())/1000)
	s.ev.KillCycles++

	if got := g.Primary.Cluster().Version(); got != wantVer {
		return fmt.Errorf("promotion minted map version %d, want %d", got, wantVer)
	}
	s.ev.PromotedVersion = wantVer
	spread, err := s.waitMapSpread(wantVer)
	if err != nil {
		return err
	}
	s.ev.GossipSpreadMs = append(s.ev.GossipSpreadMs, float64(spread.Microseconds())/1000)
	s.logf("failover in %v, map version %d spread in %v", failover, wantVer, spread)

	for i := 0; i < 50; i++ {
		if err := s.oneOp(); err != nil {
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
func (s *scenario) rebalance() error {
	cur, err := cluster.FetchMap(s.groups[0].Primary.Addr(), 0, 2*time.Second)
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
	if _, err := cluster.OfferMap(s.groups[0].Primary.Addr(), next, 2*time.Second); err != nil {
		return fmt.Errorf("rebalance: offer: %w", err)
	}
	spread, err := s.waitMapSpread(next.Version)
	if err != nil {
		return err
	}
	s.ev.RebalanceVer = next.Version
	s.ev.GossipSpreadMs = append(s.ev.GossipSpreadMs, float64(spread.Microseconds())/1000)
	s.logf("rebalance map version %d spread in %v", next.Version, spread)

	// Traffic across the moved boundaries: the client still routes by
	// the old map until a refused push teaches it otherwise.
	before := s.cl.Stats().Redirects
	for i := 0; i < 200; i++ {
		if err := s.oneOp(); err != nil {
			return fmt.Errorf("post-rebalance traffic: %w", err)
		}
	}
	after := s.cl.Stats()
	if after.Redirects == before {
		return fmt.Errorf("rebalance moved every boundary but the client saw no StatusNotOwner redirect")
	}
	if after.MapVersion < next.Version {
		return fmt.Errorf("client holds map version %d after redirects, want >= %d", after.MapVersion, next.Version)
	}
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
	ev, runErr := run(config{
		geom: engine.Config{Shards: *shards, Order: 2, Levels: *levels},
		mode: clMode, nodes: *nodes, ops: *ops,
		kill: *kill, rebal: *rebal, seed: *seed, verbose: *verbose,
	})
	path, err := harness.WriteEvidence(*evDir, "bmwcluster.json", ev)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("bmwcluster: %s — %d node(s), %d acked pushes, %d acked pops, %d kill cycle(s), %d redirect(s), %d drained, evidence in %s\n",
		ev.Result, ev.Nodes, ev.AckedPushes, ev.AckedPops, ev.KillCycles, ev.Redirects, ev.FinalDrain, path)
	if runErr != nil {
		fatalf("%v", runErr)
	}
}

// run plays the scenario and returns the evidence, whose Result is
// "pass" exactly when the error is nil.
func run(cfg config) (*evidence, error) {
	ev := &evidence{Schema: "bmwcluster/v1", Nodes: cfg.nodes, Mode: cfg.mode.String(), Ops: cfg.ops}
	s := &scenario{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.seed)),
		golden: harness.NewLockstep(),
		ev:     ev,
	}
	if cfg.verbose {
		s.log = slog.NewTextHandler(os.Stderr, nil)
	}
	start := time.Now()
	err := s.run()
	ev.DurationMs = float64(time.Since(start).Microseconds()) / 1000
	if err != nil {
		ev.Result = "fail"
		ev.Errors = append(ev.Errors, err.Error())
	} else {
		ev.Result = "pass"
	}
	return ev, err
}

func (s *scenario) run() error {
	// Listeners first: the map names real addresses, so every port is
	// bound before the map that advertises it exists.
	const rankBits = 30
	type pair struct{ prim, standby net.Listener }
	lns := make([]pair, s.cfg.nodes)
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
	m := &cluster.Map{Version: 1, Mode: s.cfg.mode}
	span := uint64(1) << rankBits
	if s.cfg.mode == cluster.ModeRank {
		m.RankBits = rankBits
	} else {
		span = 0 // full 64-bit hash space; /nodes below uses wraparound width
	}
	width := (span - 1) / uint64(s.cfg.nodes)
	for i := 0; i < s.cfg.nodes; i++ {
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

	for i := 0; i < s.cfg.nodes; i++ {
		g := &group{id: uint32(i + 1)}
		defer g.Kill()
		prim, err := s.start(m, g.id, "", lns[i].prim)
		if err != nil {
			return err
		}
		g.Primary = prim
		s.groups = append(s.groups, g)
		if g.Standby, err = s.start(m, g.id, prim.Addr(), lns[i].standby); err != nil {
			return err
		}
	}
	for _, g := range s.groups {
		if err := g.WaitReplicated(); err != nil {
			return fmt.Errorf("node %d: %w", g.id, err)
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
	s.cl = cl
	defer cl.Close()
	defer func() {
		st := cl.Stats()
		s.ev.Redirects = st.Redirects
		s.ev.MapRefreshes = st.MapRefreshes
		s.ev.ClientMapVer = st.MapVersion
		s.ev.AckedPushes = s.golden.Pushes
		s.ev.AckedPops = s.golden.Pops
		s.ev.PerNodeOps = map[string]uint64{}
		for id, ns := range st.PerNode {
			s.ev.PerNodeOps[fmt.Sprintf("node%d", id)] = ns.Ops
		}
	}()

	// Main mixed-traffic phase in golden lockstep.
	for i := 0; i < s.cfg.ops; i++ {
		if err := s.oneOp(); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}

	if s.cfg.kill {
		// Kill the middle group: its band has neighbours on both sides,
		// so post-failover routing and merging cross it.
		if err := s.killCycle(s.groups[len(s.groups)/2]); err != nil {
			return err
		}
	}
	if s.cfg.rebal {
		if err := s.rebalance(); err != nil {
			return err
		}
	}
	for _, g := range s.groups {
		if g.Standby != nil {
			if err := g.WaitReplicated(); err != nil {
				return fmt.Errorf("node %d: %w", g.id, err)
			}
		}
	}
	s.ev.FinalDrain, err = s.golden.Drain(cl.PopMin)
	return err
}
