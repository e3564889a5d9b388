// Package engine is the sharded, concurrent serving layer over the
// software BMW-Tree: N shards, each owning one *core.Tree behind an
// execution lock, with a bounded MPSC request ring and a drain goroutine
// for the contended case. The cycle-accurate R-BMW and RPU-BMW models
// are not served: their lockstep tests against core already prove them
// equivalent to it.
//
// The tree is intentionally single-goroutine — it models hardware with
// one issue port per cycle and carries zero synchronization on its hot
// paths. The engine is the one concurrency boundary: each tree is only
// ever touched by the holder of its shard's execution lock.
//
// Execution is caller-runs. A submit routes and gates its operations
// against the published shard state, then TryLocks each target shard:
// when it gets the lock it executes its own group on its own stack — no
// wake-up, no hand-off, no allocation — and only when the lock is held
// (another submitter or the drain goroutine is inside) does the group go
// to the shard's ring, which the drain goroutine executes under the same
// lock, a batch at a time. The selector is the lock state observed at
// that instant; there is no option. The ring cannot starve behind inline
// executors: sync.Mutex refuses TryLock once a waiter has been blocked
// for 1 ms (starvation mode), so the drain goroutine goes next.
// ApplyReplica never queues: it must not refuse and has nothing to gain
// from a hand-off, so it blocks on the lock and executes in place.
//
// Ordering semantics: each shard is an exact PIFO — every pop returns a
// true minimum of the elements currently on that shard. Across shards
// the order is determined by routing. With RouteRank the rank space is
// range-partitioned, so draining shards lowest-first yields a globally
// sorted sequence and the strict merge (pop from the shard with the
// smallest published head) is exact up to concurrently in-flight
// requests. With RouteHash elements of any rank land on any shard and
// the merge is best-effort: per-shard exactness still holds, global
// order is approximate while producers are concurrent. See DESIGN.md
// section 6.
//
// Backpressure is typed, never blocking: a push submitted to a shard
// whose queue reported almost-full, or whose ring is full, fails with
// ErrBackpressure and the caller decides whether to retry, shed, or
// slow down.
package engine

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/persist"
)

// Typed engine errors. Queue-level ErrFull/ErrEmpty pass through from
// internal/core.
var (
	// ErrBackpressure reports that a push was refused before reaching
	// the queue: the shard's ring was full or its queue almost-full.
	// Transient — back off briefly and retry.
	ErrBackpressure = errors.New("engine: shard backpressured")
	// ErrOverloaded reports that a push was shed by admission control:
	// the shard has been running above its overload watermarks (ring
	// occupancy or drain latency, see Overload) and is protecting
	// itself. Distinct from ErrBackpressure so callers can back off
	// harder — the shard is saturated, not momentarily full.
	ErrOverloaded = errors.New("engine: shard overloaded")
	// ErrClosed reports a submit against a closed engine.
	ErrClosed = errors.New("engine: closed")
	// ErrInvalidOp reports an operation of unknown kind.
	ErrInvalidOp = errors.New("engine: invalid operation")
	// ErrMiss reports a bounded pop that took nothing: the queue was
	// empty or its head ranked above the bound. A normal outcome, not a
	// fault — nothing was mutated and no LSN consumed.
	ErrMiss = errors.New("engine: bounded pop missed")
)

// OpKind identifies a request kind.
type OpKind uint8

// Request kinds.
const (
	OpPush OpKind = iota
	OpPop
	// OpPopBounded pops the head iff its rank is at most Elem.Value, and
	// otherwise changes nothing (ErrMiss). It is what lets a merging
	// parent — the cluster client, one level up — ask for a whole run
	// of pops in one batch without overshooting a sibling's head. A hit
	// is a plain pop to everything downstream (same Result, same LSN
	// sequence).
	OpPopBounded
)

// Op is one request: a push carrying an element, a pop, or a bounded
// pop carrying its bound in Elem.Value.
type Op struct {
	Kind OpKind
	Elem core.Element
}

// PushOp builds a push request.
func PushOp(e core.Element) Op { return Op{Kind: OpPush, Elem: e} }

// PopOp builds a pop request.
func PopOp() Op { return Op{Kind: OpPop} }

// PopBoundedOp builds a bounded pop: take the head iff its rank <= bound.
func PopBoundedOp(bound uint64) Op {
	return Op{Kind: OpPopBounded, Elem: core.Element{Value: bound}}
}

// Result is one request's outcome. Elem is meaningful for a successful
// pop. Shard and LSN identify where and in what order a successful
// (Err == nil) operation mutated its queue: LSN is the shard's count of
// applied mutations, dense and strictly increasing per shard. They are
// what WAL-shipping replication streams; refused or failed operations
// mutate nothing and carry LSN 0.
type Result struct {
	Elem  core.Element
	Err   error
	Shard int32
	LSN   uint64
}

// Routing selects how pushes map to shards.
type Routing int

// Routing policies.
const (
	// RouteHash spreads pushes by a hash of the element metadata (the
	// flow identifier), balancing load at the cost of cross-shard
	// ordering exactness.
	RouteHash Routing = iota
	// RouteRank partitions the rank space into contiguous per-shard
	// ranges, preserving a globally sorted drain order.
	RouteRank
)

// Kind named a shard's queue implementation when the engine could serve
// more than one.
//
// Deprecated: every shard owns a *core.Tree; KindCore is the only value
// New accepts.
type Kind int

// KindCore is the software BMW-Tree, the only queue the engine serves.
//
// Deprecated: leave Config.Kind at its zero value.
const KindCore Kind = 0

// Config parameterises New.
type Config struct {
	// Shards is the number of shards (default 1).
	Shards int
	// Kind must be left zero.
	//
	// Deprecated: every shard owns a *core.Tree.
	Kind Kind
	// Order and Levels shape each shard's tree (defaults 2 and 11).
	Order, Levels int
	// RingSize bounds each shard's request ring (default 1024).
	RingSize int
	// BatchSize caps how many requests a shard drains and executes per
	// ring acquisition (default 64).
	BatchSize int
	// Routing selects the push-routing policy (default RouteHash).
	Routing Routing
	// RankBits is the width of the rank space RouteRank partitions
	// (default 16, matching the paper's 16-bit ranks). Ranks at or
	// beyond 1<<RankBits route to the last shard.
	RankBits int
	// RestoreDir, when non-empty, restores every shard from the
	// per-shard checkpoint fan-out a previous Checkpoint wrote there.
	// A missing or empty directory is a fresh start, not an error.
	RestoreDir string
	// Overload sets the admission-control watermarks; the zero value
	// disables overload shedding.
	Overload Overload
}

// Overload parameterises per-shard admission control. A shard trips
// into overload when its ring occupancy at drain reaches HighFrac of
// the ring size, or a drained batch takes DrainLatencyHigh or longer to
// execute; while tripped, pushes routed to it are shed with
// ErrOverloaded. It clears once occupancy falls back to LowFrac with
// drain latency below the high mark — hysteresis, so the signal does
// not flap at the boundary — or once Cooloff passes with no drain at
// all: shed pushes never reach the ring, so under push-only traffic an
// emptied ring would otherwise never drain again and the latch would
// hold forever.
type Overload struct {
	// HighFrac is the ring-occupancy fraction (0,1] that trips
	// overload. Zero disables overload control entirely.
	HighFrac float64
	// LowFrac is the occupancy fraction at or below which overload
	// clears (default HighFrac/2).
	LowFrac float64
	// DrainLatencyHigh, when nonzero, also trips overload when one
	// drained batch takes this long or longer to execute.
	DrainLatencyHigh time.Duration
	// Cooloff bounds how long a tripped shard sheds without any drain
	// re-evaluating the signal; past it the next push is admitted and
	// the watermarks judge afresh (default 250ms).
	Cooloff time.Duration
}

// enabled reports whether overload control is on.
func (o Overload) enabled() bool { return o.HighFrac > 0 }

// Normalized returns the config with all defaults applied — the form
// New actually runs, and the form replication manifests compare.
func (c Config) Normalized() Config { return c.withDefaults() }

// withDefaults fills the zero values.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Order <= 0 {
		c.Order = 2
	}
	if c.Levels <= 0 {
		c.Levels = 11
	}
	if c.RingSize <= 0 {
		c.RingSize = 1024
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.RankBits <= 0 || c.RankBits > 63 {
		c.RankBits = 16
	}
	if c.Overload.HighFrac > 0 && c.Overload.LowFrac <= 0 {
		c.Overload.LowFrac = c.Overload.HighFrac / 2
	}
	if c.Overload.HighFrac > 0 && c.Overload.Cooloff <= 0 {
		c.Overload.Cooloff = 250 * time.Millisecond
	}
	return c
}

// emptyHead is the published head value of an empty shard. A real rank
// of MaxUint64 collides with it and merely deprioritizes that shard in
// the merge; correctness is unaffected because pops are validated
// against the queue itself.
const emptyHead = math.MaxUint64

// Hooks are the engine's incident-wiring points, set once via
// SetHooks before traffic: the flight recorder receives overload and
// backpressure edges, OnOverloadTrip fires when a shard trips into
// overload — from whichever goroutine held the shard's execution lock,
// which may be a submitter's, so keep it non-blocking (internal/node
// enqueues to its capture goroutine) — and OnPanic observes a queue's
// panic value, on the drain goroutine or a submitter's, before the
// engine re-panics.
type Hooks struct {
	Flight         *obs.FlightRecorder
	OnOverloadTrip func(shard, occ int)
	OnPanic        func(shard int, r any)
	// Metrics, when non-nil, is handed to the per-shard persist
	// managers Checkpoint attaches (prefixed <MetricsPrefix>_shard<i>),
	// so WAL sticky-poisoning and fsync-retry state surface as gauges
	// on the daemon registry.
	Metrics       *obs.Registry
	MetricsPrefix string

	walPoisoned []*obs.Gauge // per shard, what WALPoisoned reads
}

// shard is one engine lane: a tree, the execution lock that owns it,
// and the ring plus drain goroutine that serve the contended case.
type shard struct {
	id int
	// exec is the execution lock. Its holder owns q, lsn, slowRuns and
	// closed; execute and publish require it.
	exec sync.Mutex
	q    *core.Tree
	// closed is set by Close once the drain goroutine has exited; an
	// inline executor that sees it backs out to the (closed) ring.
	closed  bool
	ring    *ring
	ringCap int
	// ov is the admission-control config, swappable at runtime
	// (SetOverload) so operators and the chaos harness can tighten or
	// relax the watermarks on a live engine.
	ov    atomic.Pointer[Overload]
	hooks *atomic.Pointer[Hooks]

	// lsn counts this shard's applied mutations; owned by the execution
	// lock's holder, mirrored into lsnPub after each execution for
	// readers.
	lsn    uint64
	lsnPub atomic.Uint64
	// slowRuns counts consecutive executions at or over
	// Overload.DrainLatencyHigh.
	slowRuns int

	// Published state, written after each execution and read by
	// routers: queue length, smallest rank (emptyHead when
	// empty) with its metadata, the almost-full backpressure signal,
	// and the overload admission gate. headV/headM are separate words,
	// so a reader racing a drain can see a (value, meta) pair from two
	// different heads; PeekMin documents that tear — merge routing keys
	// on Value alone.
	length     atomic.Int64
	headV      atomic.Uint64
	headM      atomic.Uint64
	almostFull atomic.Bool
	overloaded atomic.Bool
	// overUntil is the UnixNano deadline of the overload latch,
	// refreshed at every execution while tripped. Past it with no
	// execution having cleared the latch, the push path clears it itself
	// — no execution can, because shed pushes never reach the shard.
	overUntil atomic.Int64

	// Metrics (nil-safe when the engine is uninstrumented).
	pushes, pops     *obs.Counter
	fulls, empties   *obs.Counter
	backpressured    *obs.Counter
	shed             *obs.Counter
	ringOcc, drained *obs.Histogram

	scratch []entry
}

// batch is one submit call's state: the per-shard entry slabs routing
// fills, and the completion state — results land in place, pending
// counts the accepted entries not yet finished, and whoever takes it to
// zero completes the batch. sp, when non-nil, is the request-lifecycle
// span (StageDequeue at the first execution, StageApply at completion).
//
// Batches are recycled through the engine's free list, so who may touch
// one is spelled out. The submitter owns it except while entries of it
// sit in a ring. A drain goroutine touches a batch only through such an
// entry, and drops the entry before decrementing pending; if its
// decrement reaches zero the submitter is by construction parked on
// done, so the goroutine may still stamp sp and must then send on done
// exactly once — its last access. A decrement that does not reach zero
// is the last access outright. The submitter recycles only after it has
// itself taken pending to zero (nobody sends) or received from done, so
// done — capacity 1, never closed — is empty again at every reuse.
type batch struct {
	results []Result
	slabs   [][]entry
	pending atomic.Int32
	done    chan struct{}
	sp      *obs.Span
}

// Engine is the sharded scheduling service.
type Engine struct {
	cfg    Config
	shards []*shard
	hooks  atomic.Pointer[Hooks]
	// closed is set at the start of Close; submits that observe it fail
	// with ErrClosed without touching a shard.
	closed atomic.Bool
	wg     sync.WaitGroup

	// free recycles batches so a steady-state submit allocates nothing.
	// A plain per-engine list rather than a sync.Pool field: a Pool
	// stays on the runtime's global pool list for two GC cycles and
	// would keep a closed engine — and everything its hooks reach —
	// alive that long. It grows to the high-water mark of concurrent
	// submitters.
	freeMu sync.Mutex
	free   []*batch
}

// getBatch takes a recycled batch, or builds one.
func (e *Engine) getBatch(results []Result, sp *obs.Span) *batch {
	var b *batch
	e.freeMu.Lock()
	if n := len(e.free); n > 0 {
		b, e.free = e.free[n-1], e.free[:n-1]
	}
	e.freeMu.Unlock()
	if b == nil {
		b = &batch{slabs: make([][]entry, len(e.shards)), done: make(chan struct{}, 1)}
	}
	b.results, b.sp = results, sp
	return b
}

// putBatch recycles b; see batch for why no one else can still hold it.
func (e *Engine) putBatch(b *batch) {
	b.results, b.sp = nil, nil
	for i := range b.slabs {
		b.slabs[i] = b.slabs[i][:0]
	}
	e.freeMu.Lock()
	e.free = append(e.free, b)
	e.freeMu.Unlock()
}

// SetHooks installs the incident-wiring points. Call once, before the
// engine serves traffic.
func (e *Engine) SetHooks(h Hooks) {
	if h.Metrics != nil {
		for i := range e.shards {
			h.walPoisoned = append(h.walPoisoned,
				h.Metrics.Gauge(persist.PoisonedMetric(h.shardMetricsPrefix(i))))
		}
	}
	e.hooks.Store(&h)
}

// SetOverload replaces the admission-control watermarks on every shard
// of a live engine (defaults applied as in Config). The zero value
// disables shedding; a currently tripped latch clears at the next
// drain or push-path cooloff under the new config.
func (e *Engine) SetOverload(o Overload) {
	if o.HighFrac > 0 && o.LowFrac <= 0 {
		o.LowFrac = o.HighFrac / 2
	}
	if o.HighFrac > 0 && o.Cooloff <= 0 {
		o.Cooloff = 250 * time.Millisecond
	}
	for _, s := range e.shards {
		s.ov.Store(&o)
	}
}

// New builds the engine, restoring shards from cfg.RestoreDir when set,
// and starts one drain goroutine per shard.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.Kind != 0 {
		return nil, fmt.Errorf("engine: queue kind %d: every shard is a core tree", cfg.Kind)
	}
	if cfg.Order < core.MinOrder {
		return nil, fmt.Errorf("engine: order %d below minimum %d", cfg.Order, core.MinOrder)
	}
	e := &Engine{cfg: cfg}
	for i := 0; i < cfg.Shards; i++ {
		s := &shard{
			id:      i,
			q:       core.New(cfg.Order, cfg.Levels),
			ring:    newRing(cfg.RingSize),
			ringCap: cfg.RingSize,
			hooks:   &e.hooks,
			scratch: make([]entry, cfg.BatchSize),
		}
		ov := cfg.Overload
		s.ov.Store(&ov)
		e.shards = append(e.shards, s)
	}
	if cfg.RestoreDir != "" {
		if err := e.restore(cfg.RestoreDir); err != nil {
			return nil, err
		}
	}
	for _, s := range e.shards {
		s.publish()
		e.wg.Add(1)
		go func(s *shard) {
			defer e.wg.Done()
			s.run()
		}(s)
	}
	return e, nil
}

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Len sums the published per-shard queue lengths.
func (e *Engine) Len() int {
	n := int64(0)
	for _, s := range e.shards {
		n += s.length.Load()
	}
	return int(n)
}

// Cap sums the per-shard capacities.
func (e *Engine) Cap() int {
	n := 0
	for _, s := range e.shards {
		n += s.q.Cap()
	}
	return n
}

// ShardLen returns the published length of shard i.
func (e *Engine) ShardLen(i int) int { return int(e.shards[i].length.Load()) }

// OverloadedShards counts shards currently shedding pushes under
// admission control — the health-endpoint view of overload state.
func (e *Engine) OverloadedShards() int {
	n := 0
	for _, s := range e.shards {
		if s.overloaded.Load() {
			n++
		}
	}
	return n
}

// splitmix64 is the routing hash: cheap, well-mixed, allocation-free.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// routePush picks the shard a push belongs to.
func (e *Engine) routePush(el core.Element) int {
	n := uint64(len(e.shards))
	if e.cfg.Routing == RouteRank {
		width := (uint64(1) << e.cfg.RankBits) / n
		if width == 0 {
			width = 1
		}
		s := el.Value / width
		if s >= n {
			s = n - 1
		}
		return int(s)
	}
	return int(splitmix64(el.Meta) % n)
}

// routePop picks the shard with the smallest published head — the
// strict merge across shard minimums. It returns -1 when every shard
// publishes empty.
func (e *Engine) routePop() int {
	best, bestHead := -1, uint64(emptyHead)
	for i, s := range e.shards {
		if s.length.Load() == 0 {
			continue
		}
		if h := s.headV.Load(); best == -1 || h < bestHead {
			best, bestHead = i, h
		}
	}
	return best
}

// routePopBounded is routePop for a bounded pop: alongside the shard
// with the smallest published head it returns bound tightened to the
// smallest head among the other shards. The target shard then stops
// at the first element a sibling could undercut, so a batch of bounded
// pops — all routed here from one snapshot — never takes from one
// shard an element ranked above another shard's head.
func (e *Engine) routePopBounded(bound uint64) (int, uint64) {
	best, bestHead, second := -1, uint64(emptyHead), uint64(emptyHead)
	for i, s := range e.shards {
		if s.length.Load() == 0 {
			continue
		}
		h := s.headV.Load()
		if best == -1 || h < bestHead {
			best, bestHead, second = i, h, bestHead
		} else if h < second {
			second = h
		}
	}
	return best, min(bound, second)
}

// PeekMin returns the engine's current global minimum — the smallest
// published shard head — without removing it, or ok=false when every
// shard publishes empty. It is the node-local half of the cluster's
// cross-node strict-merge PopMin: a client probes each node's minimum
// with this (via the wire protocol's OpPeek) and drains from the
// globally minimal head, mirroring routePop's merge across shards one
// level up. The read is advisory, exactly like routePop's snapshot:
// concurrent mutators can change the head before the caller acts, and
// the returned Meta may be torn relative to Value when a drain races
// the read (the merge keys on Value alone).
func (e *Engine) PeekMin() (core.Element, bool) {
	best := core.Element{Value: emptyHead}
	ok := false
	for _, s := range e.shards {
		if s.length.Load() == 0 {
			continue
		}
		if v := s.headV.Load(); !ok || v < best.Value {
			best = core.Element{Value: v, Meta: s.headM.Load()}
			ok = true
		}
	}
	return best, ok
}

// Submit routes each operation to its shard, executes each per-shard
// group — on this goroutine when the shard's execution lock is free,
// through the shard's ring otherwise — and waits for all accepted
// operations to complete. Refused operations (backpressure, closed
// engine, pop on an engine publishing empty) fail in place without
// blocking the rest of the batch. The returned slice has one Result
// per op, in order.
func (e *Engine) Submit(ops []Op) []Result {
	results := make([]Result, len(ops))
	e.SubmitInto(ops, results)
	return results
}

// SubmitInto is Submit writing into a caller-provided result slice
// (len(results) must equal len(ops)), saving the allocation on hot
// paths: a steady-state SubmitInto allocates nothing.
func (e *Engine) SubmitInto(ops []Op, results []Result) {
	e.SubmitTraced(ops, results, nil)
}

// SubmitTraced is SubmitInto carrying a request-lifecycle span: the
// engine stamps StageEnqueue immediately before the first group is
// executed or enqueued (so it always precedes StageDequeue), StageDequeue
// when one of the request's operations starts executing, and StageApply
// when the last accepted operation has executed. A nil span costs one
// branch per stamp site — the untraced path.
func (e *Engine) SubmitTraced(ops []Op, results []Result, sp *obs.Span) {
	if len(results) != len(ops) {
		panic("engine: SubmitInto result slice length mismatch")
	}
	if e.closed.Load() {
		for i := range results {
			results[i] = Result{Err: ErrClosed}
		}
		return
	}
	b := e.getBatch(results, sp)
	accepted := 0
	for i, op := range ops {
		var sh int
		switch op.Kind {
		case OpPush:
			sh = e.routePush(op.Elem)
			if s := e.shards[sh]; s.overloaded.Load() {
				// An expired latch means no execution has re-judged the
				// signal for a full cooloff — admit this push so the
				// next one can.
				if time.Now().UnixNano() >= s.overUntil.Load() {
					if s.overloaded.Swap(false) {
						s.overloadEdge(false, -1)
					}
				} else {
					s.shed.Inc()
					results[i] = Result{Err: ErrOverloaded}
					continue
				}
			}
			if e.shards[sh].almostFull.Load() {
				e.shards[sh].backpressured.Inc()
				results[i] = Result{Err: ErrBackpressure}
				continue
			}
		case OpPop:
			sh = e.routePop()
			if sh < 0 {
				results[i] = Result{Err: core.ErrEmpty}
				continue
			}
		case OpPopBounded:
			sh, op.Elem.Value = e.routePopBounded(op.Elem.Value)
			if sh < 0 {
				results[i] = Result{Err: ErrMiss}
				continue
			}
		default:
			results[i] = Result{Err: ErrInvalidOp}
			continue
		}
		b.slabs[sh] = append(b.slabs[sh], entry{op: op, b: b, idx: i})
		accepted++
	}
	if accepted == 0 {
		e.putBatch(b)
		return
	}
	b.pending.Store(int32(accepted))
	// Stamp before the first group leaves: a drain goroutine may execute
	// (and stamp StageDequeue) the instant an entry lands in its ring, so
	// stamping after the loop could record enqueue > dequeue.
	sp.Stamp(obs.StageEnqueue)
	// here counts the accepted entries finished on this goroutine —
	// executed inline or refused by a ring — and so not counted down by
	// any drain goroutine.
	here := int32(0)
	for sh, es := range b.slabs {
		if len(es) == 0 {
			continue
		}
		s := e.shards[sh]
		if s.exec.TryLock() {
			if !s.closed {
				s.executeAndUnlock(es, s.ring.len())
				here += int32(len(es))
				continue
			}
			// Closed under us: the closed ring below answers ErrClosed.
			s.exec.Unlock()
		}
		n := s.ring.enqueue(es)
		err := ErrBackpressure
		if n < 0 {
			n, err = 0, ErrClosed
		}
		for _, rej := range es[n:] {
			if err == ErrBackpressure {
				s.backpressured.Inc()
			}
			results[rej.idx] = Result{Err: err}
			here++
		}
	}
	if here > 0 && b.pending.Add(-here) == 0 {
		// Everything this goroutine did not finish itself was already
		// executed (those decrements came first) without any drain
		// goroutine seeing pending hit zero, so completion falls to us
		// and nothing was or will be sent on done. First-wins stamp.
		sp.Stamp(obs.StageApply)
	} else {
		<-b.done
	}
	e.putBatch(b)
}

// Push submits one push. It returns nil on success, ErrBackpressure
// when the shard refuses admission, core.ErrFull when the queue itself
// is full at execution, or ErrClosed.
func (e *Engine) Push(el core.Element) error {
	var results [1]Result
	e.SubmitInto([]Op{PushOp(el)}, results[:])
	return results[0].Err
}

// Pop submits one pop via the strict merge. When the merged shard
// raced to empty it retries against the remaining shards before
// reporting core.ErrEmpty.
func (e *Engine) Pop() (core.Element, error) {
	var results [1]Result
	ops := [1]Op{PopOp()}
	for attempt := 0; attempt <= len(e.shards); attempt++ {
		e.SubmitInto(ops[:], results[:])
		r := results[0]
		if !errors.Is(r.Err, core.ErrEmpty) {
			return r.Elem, r.Err
		}
		if e.Len() == 0 {
			break
		}
	}
	return core.Element{}, core.ErrEmpty
}

// Close stops the drain goroutines after the rings drain, then marks
// each shard closed under its execution lock: once Close returns, no
// executor — drain goroutine, inline submitter or ApplyReplica — is
// inside a queue or can enter one. Submits that raced with Close
// complete or fail with ErrClosed; later submits fail with ErrClosed.
// Close is idempotent.
func (e *Engine) Close() {
	if e.closed.Swap(true) {
		return
	}
	for _, s := range e.shards {
		s.ring.close()
	}
	e.wg.Wait()
	for _, s := range e.shards {
		s.exec.Lock()
		s.closed = true
		s.exec.Unlock()
	}
}

// ShardDrain empties shard i in pop order. It must only be called
// after Close has returned, when nothing can execute on the shard.
func (e *Engine) ShardDrain(i int) ([]core.Element, error) {
	if !e.closed.Load() {
		return nil, errors.New("engine: ShardDrain before Close")
	}
	s := e.shards[i]
	out := make([]core.Element, 0, s.q.Len())
	for s.q.Len() > 0 {
		el, err := s.q.Pop()
		if err != nil {
			return out, err
		}
		out = append(out, el)
	}
	return out, nil
}

// run is the shard's drain goroutine: take a batch off the ring,
// execute it under the execution lock, then complete its entries.
func (s *shard) run() {
	for {
		n, occ := s.ring.drain(s.scratch)
		if n == 0 {
			return
		}
		s.ringOcc.Observe(uint64(occ))
		s.exec.Lock()
		s.executeAndUnlock(s.scratch[:n], occ)
		var applyNs int64
		for i := 0; i < n; i++ {
			b := s.scratch[i].b
			s.scratch[i] = entry{}
			if b.pending.Add(-1) == 0 {
				if b.sp != nil {
					if applyNs == 0 {
						applyNs = obs.SpanNow()
					}
					b.sp.StampAt(obs.StageApply, applyNs)
				}
				b.done <- struct{}{}
			}
		}
	}
}

// executeAndUnlock runs execute under the already-held execution lock
// and releases it. A queue panic is shown to Hooks.OnPanic and
// re-panicked on whichever goroutine was executing.
func (s *shard) executeAndUnlock(es []entry, occ int) {
	defer func() {
		r := recover()
		s.exec.Unlock()
		if r != nil {
			if h := s.hooks.Load(); h != nil && h.OnPanic != nil {
				h.OnPanic(s.id, r)
			}
			panic(r)
		}
	}()
	s.execute(es, occ)
}

// execute applies es to the queue in order, writing each result into
// its batch, then publishes the head/length/backpressure signals and
// re-judges overload. occ is the ring occupancy the caller observed.
// It is the only code that mutates a serving queue — the inline path,
// the ring drain and ApplyReplica all come through here — and the
// caller must hold s.exec.
func (s *shard) execute(es []entry, occ int) {
	s.drained.Observe(uint64(len(es)))
	ov := *s.ov.Load()
	var start time.Time
	if ov.DrainLatencyHigh > 0 {
		start = time.Now()
	}
	// One span clock read covers every traced batch in this execution:
	// the entries all start executing now, so this moment IS their
	// dequeue timestamp, and sharing it keeps the per-entry cost at a
	// nil check when tracing is off.
	var drainNs int64
	for i := range es {
		en := &es[i]
		if en.b.sp != nil {
			if drainNs == 0 {
				drainNs = obs.SpanNow()
			}
			en.b.sp.StampAt(obs.StageDequeue, drainNs)
		}
		switch en.op.Kind {
		case OpPush:
			err := s.q.Push(en.op.Elem)
			switch {
			case err == nil:
				s.pushes.Inc()
				s.lsn++
				en.b.results[en.idx] = Result{Err: nil, Shard: int32(s.id), LSN: s.lsn}
				continue
			case errors.Is(err, core.ErrFull):
				s.fulls.Inc()
			}
			en.b.results[en.idx] = Result{Err: err}
		case OpPopBounded:
			if head, err := s.q.Peek(); err != nil || head.Value > en.op.Elem.Value {
				en.b.results[en.idx] = Result{Err: ErrMiss}
				continue
			}
			fallthrough
		case OpPop:
			el, err := s.q.Pop()
			switch {
			case err == nil:
				s.pops.Inc()
				s.lsn++
				en.b.results[en.idx] = Result{Elem: el, Shard: int32(s.id), LSN: s.lsn}
				continue
			case errors.Is(err, core.ErrEmpty):
				s.empties.Inc()
			}
			en.b.results[en.idx] = Result{Elem: el, Err: err}
		default:
			en.b.results[en.idx] = Result{Err: ErrInvalidOp}
		}
	}
	s.publish()
	if ov.enabled() {
		s.updateOverload(ov, occ, start)
	}
}

// updateOverload applies the admission-control hysteresis after one
// execution: trip at the high watermarks, clear only once both signals
// sit below them again. The latency signal is the second consecutive
// slow execution, not the first — one slow execution is a host stall
// that happened to land in it, two in a row is a shard that cannot keep
// up (DESIGN.md section 6a). Edges (not levels) feed the hooks.
func (s *shard) updateOverload(ov Overload, occ int, start time.Time) {
	frac := float64(occ) / float64(s.ringCap)
	if ov.DrainLatencyHigh > 0 && time.Since(start) >= ov.DrainLatencyHigh {
		s.slowRuns++
	} else {
		s.slowRuns = 0
	}
	switch {
	case frac >= ov.HighFrac || s.slowRuns >= 2:
		if !s.overloaded.Swap(true) {
			s.overloadEdge(true, occ)
		}
	case s.overloaded.Load() && frac <= ov.LowFrac:
		if s.overloaded.Swap(false) {
			s.overloadEdge(false, occ)
		}
	}
	if s.overloaded.Load() {
		s.overUntil.Store(time.Now().Add(ov.Cooloff).UnixNano())
	}
}

// overloadEdge reports one overload latch transition to the hooks.
// occ is the ring occupancy at the deciding execution (-1 when the edge
// came from the push path's cooloff expiry).
func (s *shard) overloadEdge(tripped bool, occ int) {
	h := s.hooks.Load()
	if h == nil {
		return
	}
	b := uint64(0)
	if tripped {
		b = 1
	}
	h.Flight.Record(obs.FlightOverload, 0, uint64(s.id), b, uint64(max(occ, 0)))
	if tripped && h.OnOverloadTrip != nil {
		h.OnOverloadTrip(s.id, occ)
	}
}

// publish refreshes the shard's router-visible state from its queue,
// recording almost-full (backpressure) edges into the flight recorder.
func (s *shard) publish() {
	s.length.Store(int64(s.q.Len()))
	if el, err := s.q.Peek(); err == nil {
		s.headV.Store(el.Value)
		s.headM.Store(el.Meta)
	} else {
		s.headV.Store(emptyHead)
		s.headM.Store(0)
	}
	af := s.q.AlmostFull()
	if s.almostFull.Swap(af) != af {
		if h := s.hooks.Load(); h != nil {
			b := uint64(0)
			if af {
				b = 1
			}
			h.Flight.Record(obs.FlightBackpressure, 0, uint64(s.id), b, uint64(s.q.Len()))
		}
	}
	s.lsnPub.Store(s.lsn)
}

// ShardLSN returns shard i's published applied-mutation count — the
// replication high-water mark readers compare against streamed record
// LSNs.
func (e *Engine) ShardLSN(i int) uint64 { return e.shards[i].lsnPub.Load() }

// ApplyReplica executes ops against shard sh directly — the replication
// apply path. It bypasses push routing, the strict-merge pop routing,
// and every admission gate (backpressure and overload): a follower must
// apply the primary's history verbatim, in the primary's per-shard LSN
// order, and the history is known to fit because the primary executed
// it against identical geometry. It never queues: it blocks on the
// shard's execution lock — at most one execution away, or the mutex's
// 1 ms starvation hand-off under a stream of inline submitters — and
// executes on the caller's stack, all of ops or none. Results land one
// per op, in order, with Shard/LSN stamped exactly as on the primary;
// it returns ErrClosed, having applied nothing, once the engine has
// closed.
func (e *Engine) ApplyReplica(sh int, ops []Op, results []Result) error {
	if len(results) != len(ops) {
		panic("engine: ApplyReplica result slice length mismatch")
	}
	if sh < 0 || sh >= len(e.shards) {
		return fmt.Errorf("engine: ApplyReplica shard %d of %d", sh, len(e.shards))
	}
	if len(ops) == 0 {
		return nil
	}
	b := e.getBatch(results, nil)
	es := b.slabs[sh]
	for i, op := range ops {
		es = append(es, entry{op: op, b: b, idx: i})
	}
	b.slabs[sh] = es
	s := e.shards[sh]
	s.exec.Lock()
	if s.closed {
		s.exec.Unlock()
		for i := range results {
			results[i] = Result{Err: ErrClosed}
		}
		e.putBatch(b)
		return ErrClosed
	}
	s.executeAndUnlock(es, s.ring.len())
	e.putBatch(b)
	return nil
}
