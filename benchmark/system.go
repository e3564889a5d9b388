package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
)

// system is one workload's path assembled up to one rung of the
// ladder: the program under test plus the closed-loop callers that
// drive it. The end-to-end run builds a workload at its own top rung;
// the traced run builds the same workload at every rung in turn.
type system struct {
	w       *workload
	callers []*caller
	chk     *lockstep

	// capacity sizes the prefill and the sawtooth; prefilled is what
	// the prefill actually pushed.
	capacity, prefilled int

	eng      *engine.Engine // rungEngine
	tree     *core.Tree     // rungCore
	nodes    []*node        // serve rungs: primary first, then follower or second primary
	closers  []func()       // client connections
	cl       *cluster.Client
	follower *node
	stopped  bool
}

// primary is the node the callers talk to.
func (s *system) primary() *node { return s.nodes[0] }

// buildOpts are the knobs the traced run turns that the end-to-end run
// leaves alone.
type buildOpts struct {
	// check attaches the lockstep checker where there is a single caller.
	check bool
	// rec, when non-nil, records a span around every batch.
	rec *spanRec
	// split drives a wire-level system from one caller that sends each
	// batch's pushes and pops as separate, separately timed requests.
	split bool
	// warmBatches, when set, replaces the workload's warm-up op count;
	// negative means no warm-up traffic at all.
	warmBatches int
}

// build assembles workload w up to level, dials, prefills and warms up.
func build(w *workload, level rung, tape []core.Element, bo buildOpts) (s *system, err error) {
	s = &system{w: w}
	defer func() {
		if err != nil {
			s.teardown()
		}
	}()
	s.capacity = w.geom.Normalized().Shards * core.Capacity(w.geom.Order, w.geom.Levels)

	// Every rung above the bare tree is driven by the workload's own
	// number of callers, so that two rungs set against each other differ
	// in the layer added and not in how much the callers overlap. A tree
	// is single-goroutine by contract: the core rung has one.
	conns, inflight := max(w.conns, 1), max(w.inflight, 1)
	if bo.split {
		conns, inflight = 1, 1
	}
	var drivers []driver
	switch level {
	case rungCore:
		s.tree = core.New(w.geom.Order, w.geom.Levels)
		s.capacity = s.tree.Cap()
		drivers = []driver{newCoreDriver(s.tree, w.batch)}
	case rungEngine:
		if s.eng, err = engine.New(w.geom); err != nil {
			return s, err
		}
		for i := 0; i < conns*inflight; i++ {
			drivers = append(drivers, newEngineDriver(s.eng, w.batch))
		}
	case rungWire, rungReplic, rungObs, rungSync:
		o := nodeOpts{geom: w.geom,
			replic: level >= rungReplic, obs: level >= rungObs, sync: level == rungSync}
		n, err := startNode(o)
		if err != nil {
			return s, err
		}
		s.nodes = append(s.nodes, n)
		if level == rungSync {
			fo := o
			fo.sync, fo.follow = false, n.addr
			if s.follower, err = startNode(fo); err != nil {
				return s, err
			}
			s.nodes = append(s.nodes, s.follower)
			if err := waitFollower(n, s.follower); err != nil {
				return s, err
			}
		}
		for c := 0; c < conns; c++ {
			rc, err := dial(n.addr)
			if err != nil {
				return s, err
			}
			s.closers = append(s.closers, func() { rc.Close() })
			for i := 0; i < inflight; i++ {
				if bo.split {
					drivers = append(drivers, newSplitDriver("wire.ResilientClient.Do", rc, w.batch))
				} else {
					drivers = append(drivers, newWireDriver("wire.ResilientClient.Do", rc, w.batch))
				}
			}
		}
	case rungCluster:
		// Two primaries under a rank-band map. Under uniform ranks the
		// merge drains the lower band first, so the upper band's node
		// ends up holding nearly everything queued: fills are sized
		// against one node's capacity, not two.
		m := &cluster.Map{Version: 1, Mode: cluster.ModeRank, RankBits: rankBits}
		var lns []net.Listener
		defer func() {
			// Listeners no node took over (an error came first).
			for _, ln := range lns[len(s.nodes):] {
				ln.Close()
			}
		}()
		for i := uint64(0); i < 2; i++ {
			ln, err := listen()
			if err != nil {
				return s, err
			}
			lns = append(lns, ln)
			m.Nodes = append(m.Nodes, cluster.Node{ID: uint32(i + 1), Epoch: 1,
				Start: i << (rankBits - 1), Addrs: []string{ln.Addr().String()}})
		}
		for i, ln := range lns {
			n, err := startNode(nodeOpts{geom: w.geom, replic: true, obs: true,
				ln: ln, cmap: m, self: uint32(i + 1)})
			if err != nil {
				return s, err
			}
			s.nodes = append(s.nodes, n)
		}
		if s.cl, err = cluster.NewClient(cluster.Options{Map: m, RequestTimeout: 5 * time.Second, MaxAttempts: 8}); err != nil {
			return s, err
		}
		s.closers = append(s.closers, s.cl.Close)
		if bo.split {
			drivers = []driver{newSplitDriver("cluster.Client.Do", s.cl, w.batch)}
		} else {
			drivers = []driver{newWireDriver("cluster.Client.Do", s.cl, w.batch)}
		}
	default:
		return s, fmt.Errorf("no system at rung %d", level)
	}

	if bo.check && len(drivers) == 1 {
		s.chk = newLockstep(level == rungCluster)
	}
	for i, d := range drivers {
		s.callers = append(s.callers, &caller{w: w, d: d, rec: bo.rec, tid: int32(i + 1),
			meterCPU: len(drivers) == 1})
	}
	s.callers[0].chk = s.chk

	// Prefill through the first caller, in whole batches of pushes.
	first := s.callers[0]
	first.g = newGen(w, tape, 0, s.capacity, 0)
	first.g.pushOnly = true
	want := uint64(w.fill*float64(s.capacity)) / uint64(w.batch) * uint64(w.batch)
	for try := 0; first.tally.pushOK < want; try++ {
		// A refused push (admission control tripping on a slow machine)
		// is made up for with a further element, after a pause.
		if try == 100 {
			return s, fmt.Errorf("prefill: %d of %d pushes refused", first.tally.failed, first.tally.attempted)
		}
		if try > 0 {
			time.Sleep(10 * time.Millisecond)
		}
		if err := first.run(budget{ops: want - first.tally.pushOK}, false); err != nil {
			return s, fmt.Errorf("prefill: %w", err)
		}
	}
	s.prefilled = int(first.tally.pushOK)

	for i, c := range s.callers {
		c.g = newGen(w, tape, i*len(tape)/len(s.callers), s.capacity, s.prefilled)
	}
	warm := w.warmOps
	if bo.warmBatches != 0 {
		warm = max(bo.warmBatches, 0) * w.batch
	}
	if warm > 0 {
		if _, _, err := s.run(budget{ops: uint64(warm / len(s.callers))}, false); err != nil {
			return s, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

// run drives every caller until the budget ends and returns the wall
// time of the interval and the process CPU spent in it. A lone caller
// meters its own CPU (leaving its checker out); several callers are
// metered around the interval.
func (s *system) run(b budget, keep bool) (wall, cpu time.Duration, err error) {
	start := time.Now()
	if len(s.callers) == 1 {
		c := s.callers[0]
		cpu0 := c.cpu
		err = c.run(b, keep)
		return time.Since(start), c.cpu - cpu0, err
	}
	c0 := cpuTime()
	errs := make([]error, len(s.callers))
	var wg sync.WaitGroup
	for i, c := range s.callers {
		wg.Add(1)
		go func(i int, c *caller) {
			defer wg.Done()
			errs[i] = c.run(b, keep)
		}(i, c)
	}
	wg.Wait()
	wall, cpu = time.Since(start), cpuTime()-c0
	for _, e := range errs {
		if e != nil {
			return wall, cpu, e
		}
	}
	return wall, cpu, nil
}

// totals merges the callers' tallies.
func (s *system) totals() (t tally) {
	for _, c := range s.callers {
		t.merge(&c.tally)
	}
	return t
}

// teardown stops everything the system started. It is safe on a
// half-built system.
func (s *system) teardown() {
	if s.stopped {
		return
	}
	s.stopped = true
	for _, c := range s.closers {
		c()
	}
	// Last started, first stopped: a follower's stream must end before
	// its primary's Shutdown can drain.
	for i := len(s.nodes) - 1; i >= 0; i-- {
		s.nodes[i].stop()
	}
	if s.eng != nil {
		s.eng.Close()
	}
}

// finish tears the system down and checks what it held against what the
// callers saw: conservation always, the reference queue's content for a
// lone caller, and follower against primary under sync replication.
func (s *system) finish() error {
	if s.follower != nil {
		if err := waitAcked(s.primary()); err != nil {
			s.teardown()
			return err
		}
	}
	s.teardown()

	var remaining []core.Element
	switch {
	case s.tree != nil:
		for s.tree.Len() > 0 {
			e, err := s.tree.Pop()
			if err != nil {
				return err
			}
			remaining = append(remaining, e)
		}
		if err := sortedDrain(remaining); err != nil {
			return err
		}
	case s.eng != nil:
		d, err := drainEngine(s.eng)
		if err != nil {
			return err
		}
		remaining = flatten(d)
	default:
		var drains [][][]core.Element
		for _, n := range s.nodes {
			d, err := drainEngine(n.eng)
			if err != nil {
				return err
			}
			drains = append(drains, d)
		}
		if s.follower != nil {
			if err := sameDrain("follower against primary", drains[1], drains[0]); err != nil {
				return err
			}
			drains = drains[:1]
		}
		for _, d := range drains {
			remaining = append(remaining, flatten(d)...)
		}
	}
	t := s.totals()
	if err := t.conserve(remaining); err != nil {
		return err
	}
	if s.chk != nil {
		return s.chk.finish(remaining)
	}
	return nil
}
