package cluster

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// headEmpty is the cached head of a node believed empty — the same
// sentinel the engine publishes for an empty shard, one level up.
const headEmpty = math.MaxUint64

// Options parameterises a cluster Client.
type Options struct {
	// Seeds are addresses to fetch the bootstrap map from, tried in
	// order, when Map is nil. Any cluster node serves its map.
	Seeds []string
	// Map is a static bootstrap map; set, it skips the seed fetch.
	Map *Map
	// RequestTimeout, MaxAttempts, BaseDelay and MaxDelay pass through
	// to the per-node ResilientClients (their defaults apply).
	RequestTimeout time.Duration
	MaxAttempts    int
	BaseDelay      time.Duration
	MaxDelay       time.Duration
	// RedirectMax bounds the refresh-and-re-route rounds a push batch
	// gets after StatusNotOwner redirects (default 4); past it the
	// refusal is surfaced to the caller.
	RedirectMax int
	// FetchTimeout bounds each map fetch round trip (default 2s).
	FetchTimeout time.Duration
}

// NodeStats is one node's slice of the client's traffic.
type NodeStats struct {
	// Ops counts wire operations sent to the node (pushes, the merge's
	// bounded pops — hits and misses — and its peek probes).
	Ops    uint64
	Pushes uint64
	Pops   uint64
	// Resilient are the node connection's retry/failover counters.
	Resilient wire.ResilientStats
}

// Stats snapshots the client's routing counters.
type Stats struct {
	// MapVersion is the cluster-map version currently routed by.
	MapVersion uint64
	// Redirects counts ops refused with StatusNotOwner and re-routed.
	Redirects uint64
	// MapRefreshes counts map-refresh sweeps (redirects and explicit
	// Refresh calls).
	MapRefreshes uint64
	// PopRounds counts the pop merge's rounds: one per bounded-pop
	// frame sent to a node — one that rides a push frame still counts
	// as one — and one per sweep of head probes. Divided by the OK pops
	// it is the merge's rounds per pop — 1 or more when every pop
	// travels alone, well under 1 when runs of pops batch.
	PopRounds uint64
	// PerNode is keyed by node id.
	PerNode map[uint32]NodeStats
}

// nodeConn is one replica group's connection state.
type nodeConn struct {
	rc                *wire.ResilientClient
	addrs             []string
	ops, pushes, pops atomic.Uint64
}

// Client routes queue operations across a cluster: pushes go straight
// to the owner node under the live map (retrying StatusNotOwner
// redirects with a map refresh), and pops run the cross-node strict
// merge — an atomically-refreshed per-node head cache, drained from
// the globally minimal head in bounded batches (see popRun), mirroring
// the engine's merge across shards. Each node gets one ResilientClient
// (failover order = Addrs), so a node-local failover is absorbed below
// the routing layer while a map change re-points it. Safe for
// concurrent use; under concurrent callers the merge is exact per node
// and best-effort globally, exactly like the engine's intra-process
// merge under concurrent submitters.
type Client struct {
	opts Options

	redirects atomic.Uint64
	refreshes atomic.Uint64
	popRounds atomic.Uint64

	scratch sync.Pool // of *scratch

	mu     sync.Mutex
	m      *Map
	nodes  map[uint32]*nodeConn
	heads  map[uint32]uint64 // cached head rank by node id; absent = unknown
	closed bool
}

// NewClient resolves the bootstrap map (static or fetched from the
// seeds) and returns a routing client. Connections dial lazily.
func NewClient(opts Options) (*Client, error) {
	if opts.RedirectMax <= 0 {
		opts.RedirectMax = 4
	}
	if opts.FetchTimeout <= 0 {
		opts.FetchTimeout = 2 * time.Second
	}
	c := &Client{opts: opts, nodes: map[uint32]*nodeConn{}, heads: map[uint32]uint64{}}
	switch {
	case opts.Map != nil:
		if err := opts.Map.Validate(); err != nil {
			return nil, err
		}
		c.m = opts.Map.Clone()
	case len(opts.Seeds) > 0:
		var lastErr error
		for _, addr := range opts.Seeds {
			m, err := FetchMap(addr, 0, opts.FetchTimeout)
			if err != nil {
				lastErr = err
				continue
			}
			if m != nil {
				c.m = m
				break
			}
		}
		if c.m == nil {
			return nil, fmt.Errorf("cluster: no map from any seed: %w", lastErr)
		}
	default:
		return nil, errors.New("cluster: client needs a map or seed addresses")
	}
	return c, nil
}

// Close tears down every node connection.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, nc := range c.nodes {
		nc.rc.Close()
	}
}

// Map snapshots the live routing map. Callers must not mutate it.
func (c *Client) Map() *Map {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m
}

// Stats snapshots the routing counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		MapVersion:   c.m.Version,
		Redirects:    c.redirects.Load(),
		MapRefreshes: c.refreshes.Load(),
		PopRounds:    c.popRounds.Load(),
		PerNode:      map[uint32]NodeStats{},
	}
	for id, nc := range c.nodes {
		s.PerNode[id] = NodeStats{
			Ops:       nc.ops.Load(),
			Pushes:    nc.pushes.Load(),
			Pops:      nc.pops.Load(),
			Resilient: nc.rc.Stats(),
		}
	}
	return s
}

// node returns (building if needed) the connection for map node n.
func (c *Client) node(n *Node) (*nodeConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodeLocked(n)
}

// nodeLocked is node with c.mu held.
func (c *Client) nodeLocked(n *Node) (*nodeConn, error) {
	if c.closed {
		return nil, wire.ErrConnClosed
	}
	if nc := c.nodes[n.ID]; nc != nil {
		return nc, nil
	}
	rc, err := wire.NewResilientClient(wire.ResilientOptions{
		Addrs:          n.Addrs,
		RequestTimeout: c.opts.RequestTimeout,
		MaxAttempts:    c.opts.MaxAttempts,
		BaseDelay:      c.opts.BaseDelay,
		MaxDelay:       c.opts.MaxDelay,
		Conn: wire.ClientOptions{
			ReadTimeout:  c.opts.RequestTimeout,
			WriteTimeout: c.opts.RequestTimeout,
		},
	})
	if err != nil {
		return nil, err
	}
	nc := &nodeConn{rc: rc, addrs: append([]string(nil), n.Addrs...)}
	c.nodes[n.ID] = nc
	return nc, nil
}

// adopt installs a newer map: node connections whose address lists
// changed are re-pointed (the live conn survives until it fails),
// connections for departed nodes are closed, and their cached heads
// dropped. Heads of surviving nodes stay — a map change moves
// ownership of future pushes, not the elements already queued.
func (c *Client) adopt(m *Map) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if Compare(m, c.m) <= 0 {
		return
	}
	c.m = m
	present := map[uint32]bool{}
	for i := range m.Nodes {
		n := &m.Nodes[i]
		present[n.ID] = true
		if nc := c.nodes[n.ID]; nc != nil && !sameAddrs(nc.addrs, n.Addrs) {
			nc.rc.SetAddrs(n.Addrs)
			nc.addrs = append([]string(nil), n.Addrs...)
		}
	}
	for id, nc := range c.nodes {
		if !present[id] {
			nc.rc.Close()
			delete(c.nodes, id)
			delete(c.heads, id)
		}
	}
}

func sameAddrs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Refresh sweeps the cluster (current map addresses, then seeds) for a
// map newer than the one held, adopting the newest found. minVersion
// is the version a redirect told us exists; the sweep stops early once
// it is reached.
func (c *Client) Refresh(minVersion uint64) {
	c.refreshes.Add(1)
	cur := c.Map()
	var addrs []string
	seen := map[string]bool{}
	for _, n := range cur.Nodes {
		for _, a := range n.Addrs {
			if !seen[a] {
				seen[a] = true
				addrs = append(addrs, a)
			}
		}
	}
	for _, a := range c.opts.Seeds {
		if !seen[a] {
			seen[a] = true
			addrs = append(addrs, a)
		}
	}
	var best *Map
	for _, a := range addrs {
		m, err := FetchMap(a, cur.Version, c.opts.FetchTimeout)
		if err != nil || m == nil {
			continue
		}
		if best == nil || Compare(m, best) > 0 {
			best = m
		}
		if best.Version >= minVersion {
			break
		}
	}
	if best != nil {
		c.adopt(best)
	}
}

// scratch is one call's working memory: index lists and frame buffers,
// pooled so a steady Do loop does not rebuild them every call.
// Concurrent callers each take their own, so nothing in it is shared.
type scratch struct {
	pushes []int          // op indices of the call's pushes
	pops   []int          // op indices of the current run of pops
	groups [][]int        // by map node index: the pushes routed there
	frames [][]wire.Op    // by map node index: the frame sent there
	conns  []*nodeConn    // by map node index: where a frame goes; nil for none
	sent   []wire.Pending // by map node index: that frame, in flight
	frame  []wire.Op      // the pop merge's frame
}

func (c *Client) getScratch() *scratch {
	if sc, ok := c.scratch.Get().(*scratch); ok {
		sc.pushes, sc.pops = sc.pushes[:0], sc.pops[:0]
		return sc
	}
	return &scratch{}
}

// size readies the by-node-index slices for a map of n nodes, with no
// node picked to be sent a frame.
func (sc *scratch) size(n int) {
	for len(sc.groups) < n {
		sc.groups = append(sc.groups, nil)
		sc.frames = append(sc.frames, nil)
		sc.conns = append(sc.conns, nil)
		sc.sent = append(sc.sent, wire.Pending{})
	}
	clear(sc.conns)
}

// Do executes a batch of operations across the cluster and returns one
// result per op, in order. Like engine.Submit, the ops in one batch
// are logically concurrent: pushes fan out to their owner nodes in one
// wave — every node's frame is written before any response is read —
// then pops and peeks run through the strict merge, each maximal run
// of pops (pushes between them do not break it) as one bounded batch.
// The first run of pops rides the push wave when every node's head is
// cached (see rider), so a steady call waits on one round fewer. An
// error is terminal for the whole call (a node unreachable within its
// retry budget, or an indeterminate retry — wire.ErrDedupMiss).
func (c *Client) Do(ops []wire.Op) ([]wire.Result, error) {
	results := make([]wire.Result, len(ops))
	sc := c.getScratch()
	defer c.scratch.Put(sc)
	first := len(ops) // the first peek; the pops before it may ride
	for i, op := range ops {
		switch op.Kind {
		case wire.OpPush:
			sc.pushes = append(sc.pushes, i)
		case wire.OpPop:
			if i < first {
				sc.pops = append(sc.pops, i)
			}
		case wire.OpPeek:
			first = min(first, i)
		}
	}
	if err := c.doPushes(sc, ops, results); err != nil {
		return nil, err
	}
	for i, op := range ops {
		switch op.Kind {
		case wire.OpPush:
		case wire.OpPop:
			if i > first {
				sc.pops = append(sc.pops, i)
			}
		case wire.OpPeek:
			if err := c.popRun(sc, results); err != nil {
				return nil, err
			}
			r, err := c.PeekMin()
			if err != nil {
				return nil, err
			}
			results[i] = r
		default:
			results[i] = wire.Result{Status: wire.StatusInvalid}
		}
	}
	if err := c.popRun(sc, results); err != nil {
		return nil, err
	}
	return results, nil
}

// Push routes one push to its owner.
func (c *Client) Push(value, meta uint64) (wire.Result, error) {
	ops := [1]wire.Op{{Kind: wire.OpPush, Value: value, Meta: meta}}
	var results [1]wire.Result
	sc := c.getScratch()
	defer c.scratch.Put(sc)
	sc.pushes = append(sc.pushes, 0)
	err := c.doPushes(sc, ops[:], results[:])
	return results[0], err
}

// doPushes routes ops[sc.pushes] to their owners, one frame per node,
// all written before any is waited on, re-routing StatusNotOwner
// refusals after a map refresh for up to RedirectMax rounds.
// Unresolved refusals keep their StatusNotOwner result — the caller
// sees the disagreement instead of an op silently dropped. The first
// round carries the rider: pops of sc.pops served from its frame are
// filed and taken off the front of sc.pops.
func (c *Client) doPushes(sc *scratch, ops []wire.Op, results []wire.Result) error {
	pending := sc.pushes
	for round := 0; len(pending) > 0; round++ {
		m := c.Map()
		sc.size(len(m.Nodes))
		for ni := range m.Nodes {
			sc.groups[ni] = sc.groups[ni][:0]
		}
		for _, i := range pending {
			ni := m.NodeFor(m.KeyOf(ops[i].Value, ops[i].Meta))
			sc.groups[ni] = append(sc.groups[ni], i)
		}
		ride, k, bound := -1, 0, uint64(0)
		if round == 0 {
			ride, k, bound = c.rider(sc, m, ops)
		}
		c.mu.Lock()
		for ni := range m.Nodes {
			if len(sc.groups[ni]) == 0 && ni != ride {
				continue
			}
			nc, err := c.nodeLocked(&m.Nodes[ni])
			if err != nil {
				c.mu.Unlock()
				return err
			}
			sc.conns[ni] = nc
		}
		c.mu.Unlock()
		for ni, nc := range sc.conns[:len(m.Nodes)] {
			if nc == nil {
				continue
			}
			frame := sc.frames[ni][:0]
			for _, i := range sc.groups[ni] {
				frame = append(frame, ops[i])
			}
			if ni == ride {
				frame = appendPopRound(frame, k, bound)
			}
			sc.frames[ni] = frame
			sc.sent[ni] = nc.rc.Send(frame)
			nc.ops.Add(uint64(len(frame)))
		}
		var (
			retry  []int
			maxVer uint64
			err    error
		)
		for ni, nc := range sc.conns[:len(m.Nodes)] {
			if nc == nil {
				continue
			}
			res, werr := sc.sent[ni].Wait()
			if werr != nil {
				if err == nil {
					err = werr
				}
				continue
			}
			id, group := m.Nodes[ni].ID, sc.groups[ni]
			retry, maxVer = c.filePushes(id, nc, group, ops, res[:len(group)], results, retry, maxVer)
			if ni == ride {
				c.popRounds.Add(1)
				left := c.fileRound(id, nc, sc.pops, res[len(group):], results)
				sc.pops = sc.pops[:copy(sc.pops, left)]
			}
		}
		if err != nil {
			return err
		}
		if len(retry) == 0 || round >= c.opts.RedirectMax {
			// Past RedirectMax the results already carry StatusNotOwner
			// for the leftovers.
			return nil
		}
		c.redirects.Add(uint64(len(retry)))
		c.Refresh(maxVer)
		pending = retry
	}
	return nil
}

// filePushes files the results res of the pushes gidx sent to node id,
// appending the ops refused with StatusNotOwner to retry and raising
// maxVer to the newest map version a refusal named.
func (c *Client) filePushes(id uint32, nc *nodeConn, gidx []int, ops []wire.Op, res, results []wire.Result, retry []int, maxVer uint64) ([]int, uint64) {
	acked, minAcked := uint64(0), uint64(headEmpty)
	for k, r := range res {
		i := gidx[k]
		results[i] = r
		switch r.Status {
		case wire.StatusNotOwner:
			retry = append(retry, i)
			maxVer = max(maxVer, r.Value)
		case wire.StatusOK:
			acked++
			minAcked = min(minAcked, ops[i].Value)
		}
	}
	if acked > 0 {
		nc.pushes.Add(acked)
		c.noteOwnPush(id, minAcked)
	}
	return retry, maxVer
}

// rider picks where the first run of pops (sc.pops) rides in the first
// push round. Every node's effective head is the least of its cached
// head and the values this round routes to it; the node with the least
// effective head gets, after its pushes, k bounded pops and a peek, and
// the bound is the least effective head among the other nodes. The
// bound so covers every value this call pushes elsewhere, and a push
// refused anywhere can only make the rider yield less: a sequential
// caller stays exact. ni is -1, and nothing rides, when there are no
// pops, a head is not cached, or every effective head is empty.
func (c *Client) rider(sc *scratch, m *Map, ops []wire.Op) (ni, k int, bound uint64) {
	if len(sc.pops) == 0 {
		return -1, 0, 0
	}
	ni, head, bound := -1, uint64(headEmpty), uint64(headEmpty)
	c.mu.Lock()
	for i := range m.Nodes {
		h, ok := c.heads[m.Nodes[i].ID]
		if !ok {
			c.mu.Unlock()
			return -1, 0, 0
		}
		for _, j := range sc.groups[i] {
			h = min(h, ops[j].Value)
		}
		switch {
		case h < head:
			ni, head, bound = i, h, head
		case h < bound:
			bound = h
		}
	}
	c.mu.Unlock()
	if ni < 0 {
		return -1, 0, 0
	}
	k = min(len(sc.pops), wire.MaxBatchOps-1-len(sc.groups[ni]))
	if k <= 0 {
		return -1, 0, 0
	}
	return ni, k, bound
}

// appendPopRound appends one merge round's ops to frame: k bounded pops
// under bound, then the peek that refreshes the node's cached head.
func appendPopRound(frame []wire.Op, k int, bound uint64) []wire.Op {
	for range k {
		frame = append(frame, wire.Op{Kind: wire.OpPopBounded, Value: bound})
	}
	return append(frame, wire.Op{Kind: wire.OpPeek})
}

// fileRound files one merge round's answer from node id — res holds
// the bounded pops' results, then the peek's — into results[idxs] from
// the front, and returns the indices still owed. A miss answers
// nothing; anything else answers a pop: a hit, or a refusal (overload,
// shutdown) the caller should see.
func (c *Client) fileRound(id uint32, nc *nodeConn, idxs []int, res, results []wire.Result) []int {
	peek := len(res) - 1
	c.setHead(id, res[peek])
	hits := uint64(0)
	for _, r := range res[:peek] {
		if r.Status == wire.StatusMiss {
			continue
		}
		if r.Status == wire.StatusOK {
			hits++
		}
		results[idxs[0]] = r
		idxs = idxs[1:]
	}
	nc.pops.Add(hits)
	return idxs
}

// noteOwnPush folds the client's own acknowledged pushes (value is the
// smallest of a frame's) into the head cache: a sequential caller's
// next pop sees its own writes without an extra probe round trip.
func (c *Client) noteOwnPush(id uint32, value uint64) {
	c.mu.Lock()
	if h, ok := c.heads[id]; ok && value < h {
		c.heads[id] = value
	}
	c.mu.Unlock()
}

// PopMin pops the cluster's global minimum: the one-pop case of the
// merge Do runs for every run of pops.
func (c *Client) PopMin() (wire.Result, error) {
	var results [1]wire.Result
	sc := c.getScratch()
	defer c.scratch.Put(sc)
	sc.pops = append(sc.pops, 0)
	err := c.popRun(sc, results[:])
	return results[0], err
}

// popRun is the cross-node strict merge for a run of pops, filling
// results[sc.pops] in order. Each round picks the node with the
// smallest cached head and sends it, in one frame, a bounded pop per
// pop still owed — bound = the smallest head cached for any other
// node, so the node yields exactly the prefix of the global order it
// holds and misses from there on — plus a peek that refreshes its
// cached head. Hits fill the run in order; the next round goes to
// whichever node now heads the cache. A round that hits nothing (a
// stale head: someone else popped it) still corrects that head from
// the peek. When every cached head reads empty the cache is dropped,
// and the rest of the run is answered StatusEmpty only straight after
// a probe of every node found them all empty — one confirming round
// for the whole run. Exact for a sequential caller (elements tied on
// rank are interchangeable); exact per node and best-effort globally
// under concurrency, like the engine's merge — and the bound means a
// stale cache can only make a node yield less, never out of turn.
func (c *Client) popRun(sc *scratch, results []wire.Result) error {
	idxs := sc.pops
	sc.pops = sc.pops[:0]
	for idle := 0; len(idxs) > 0; idle++ {
		m := c.Map()
		if idle > 16+4*len(m.Nodes) {
			return errors.New("cluster: pop did not converge (heads churning faster than probes)")
		}
		probedAll, err := c.ensureHeads(sc, m)
		if err != nil {
			return err
		}
		id, head, bound, complete := c.minHeads(m)
		if !complete {
			continue // a concurrent caller dropped heads after our probe
		}
		if head == headEmpty {
			if probedAll {
				for _, i := range idxs {
					results[i] = wire.Result{Status: wire.StatusEmpty}
				}
				return nil
			}
			// Believed empty everywhere, on heads cached a while ago:
			// drop them so the next round probes every node afresh.
			c.forgetHeads()
			continue
		}
		n := m.ByID(id)
		if n == nil {
			continue // map changed under us; re-snapshot
		}
		nc, err := c.node(n)
		if err != nil {
			return err
		}
		frame := appendPopRound(sc.frame[:0], min(len(idxs), wire.MaxBatchOps-1), bound)
		sc.frame = frame
		res, err := nc.rc.Do(frame)
		c.popRounds.Add(1)
		nc.ops.Add(uint64(len(frame)))
		if err != nil {
			return err
		}
		if left := c.fileRound(id, nc, idxs, res, results); len(left) < len(idxs) {
			idxs, idle = left, -1
		}
	}
	return nil
}

// PeekMin reads the cluster's global minimum without removing it,
// probing every node fresh.
func (c *Client) PeekMin() (wire.Result, error) {
	sc := c.getScratch()
	defer c.scratch.Put(sc)
	m := c.Map()
	c.forgetHeads()
	if _, err := c.ensureHeads(sc, m); err != nil {
		return wire.Result{}, err
	}
	_, head, _, _ := c.minHeads(m)
	if head == headEmpty {
		return wire.Result{Status: wire.StatusEmpty}, nil
	}
	return wire.Result{Status: wire.StatusOK, Value: head}, nil
}

// forgetHeads drops every cached head, forcing the next ensureHeads to
// probe all nodes.
func (c *Client) forgetHeads() {
	c.mu.Lock()
	clear(c.heads)
	c.mu.Unlock()
}

// peekOp is a head probe's frame; sends only read it.
var peekOp = []wire.Op{{Kind: wire.OpPeek}}

// ensureHeads probes every map node whose head is not cached, in one
// merge round: every probe is written before any is waited on.
// probedAll reports that this was all of them: the cache now holds
// nothing older than this call.
func (c *Client) ensureHeads(sc *scratch, m *Map) (probedAll bool, err error) {
	sc.size(len(m.Nodes))
	unknown := 0
	c.mu.Lock()
	for i := range m.Nodes {
		if _, ok := c.heads[m.Nodes[i].ID]; ok {
			continue
		}
		nc, err := c.nodeLocked(&m.Nodes[i])
		if err != nil {
			c.mu.Unlock()
			return false, err
		}
		sc.conns[i] = nc
		unknown++
	}
	c.mu.Unlock()
	if unknown == 0 {
		return false, nil
	}
	c.popRounds.Add(1)
	for i, nc := range sc.conns[:len(m.Nodes)] {
		if nc != nil {
			sc.sent[i] = nc.rc.Send(peekOp)
			nc.ops.Add(1)
		}
	}
	for i, nc := range sc.conns[:len(m.Nodes)] {
		if nc == nil {
			continue
		}
		res, werr := sc.sent[i].Wait()
		if werr != nil {
			if err == nil {
				err = werr
			}
			continue
		}
		c.setHead(m.Nodes[i].ID, res[0])
	}
	return unknown == len(m.Nodes), err
}

// setHead folds a peek result into the head cache. A peek that was
// refused (a shed frame) says nothing about the node: its head goes
// back to unknown.
func (c *Client) setHead(id uint32, r wire.Result) {
	c.mu.Lock()
	switch r.Status {
	case wire.StatusOK:
		c.heads[id] = r.Value
	case wire.StatusEmpty:
		c.heads[id] = headEmpty
	default:
		delete(c.heads, id)
	}
	c.mu.Unlock()
}

// minHeads returns the node id holding the smallest cached head, that
// head (headEmpty when every cached head is empty), and the smallest
// head among the other nodes — the bound up to which the first node
// may be drained without overtaking a sibling. complete is false when
// some map node has no cached head; those are left out.
func (c *Client) minHeads(m *Map) (id uint32, head, bound uint64, complete bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	head, bound, complete = headEmpty, headEmpty, true
	for i := range m.Nodes {
		h, ok := c.heads[m.Nodes[i].ID]
		switch {
		case !ok:
			complete = false
		case h < head:
			id, head, bound = m.Nodes[i].ID, h, head
		case h < bound:
			bound = h
		}
	}
	return id, head, bound, complete
}
