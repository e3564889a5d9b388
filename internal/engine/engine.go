// Package engine is the sharded, concurrent serving layer over the
// software BMW-Tree: N shards, each owning one *core.Tree behind an
// execution lock. The cycle-accurate R-BMW and RPU-BMW models are not
// served: their lockstep tests against core already prove them
// equivalent to it.
//
// The tree is intentionally single-goroutine — it models hardware with
// one issue port per cycle and carries zero synchronization on its hot
// paths. The engine is the one concurrency boundary: each tree is only
// ever touched by the holder of its shard's execution lock.
//
// Execution is caller-runs. A submit routes and gates its operations
// against the published shard state, then takes each target shard's
// execution lock in turn and executes that shard's group on its own
// stack — no wake-up, no hand-off, no allocation. A submitter that finds
// the lock held waits for it; the mutex is the only queue in front of a
// shard. ApplyReplica takes the same lock the same way.
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
// Backpressure is typed: a push routed to a shard whose queue published
// almost-full fails with ErrBackpressure and the caller decides whether
// to retry, shed, or slow down. A submit waits for executions already
// holding a lock, never for queue space.
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
	// the queue: the shard's queue published almost-full. Transient —
	// back off briefly and retry.
	ErrBackpressure = errors.New("engine: shard backpressured")
	// ErrOverloaded reports that a push was shed by admission control:
	// the shard's executions have been running over their latency bound
	// (see Overload) and it is protecting itself. Distinct from
	// ErrBackpressure so callers can back off harder — the shard is
	// saturated, not momentarily full.
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
	// RingSize and BatchSize are ignored.
	//
	// Deprecated: a contended submit waits on the shard's execution
	// lock; there is no request ring to size.
	RingSize, BatchSize int
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
	// Overload sets admission control; the zero value disables
	// overload shedding.
	Overload Overload
}

// Overload parameterises per-shard admission control. A shard trips
// into overload at the second consecutive execution that runs for
// DrainLatencyHigh or longer, and clears at the first that runs faster;
// while tripped, pushes routed to it are shed with ErrOverloaded. An
// execution's run time starts once its executor holds the shard's lock:
// time spent waiting for the lock does not count, or one stall inside a
// holder would make the holder and every waiter slow in a row. Shed
// pushes never reach the shard, so under push-only traffic a tripped
// shard would never execute again; the latch therefore also clears once
// Cooloff passes with no execution.
type Overload struct {
	// HighFrac is ignored.
	//
	// Deprecated: overload is judged on execution run time alone.
	HighFrac float64
	// DrainLatencyHigh is the run time at which an execution counts as
	// slow. Zero disables overload control.
	DrainLatencyHigh time.Duration
	// Cooloff bounds how long a tripped shard sheds without any
	// execution re-evaluating the signal; past it the next push is
	// admitted and the next execution judges afresh (default 250ms).
	Cooloff time.Duration
}

// enabled reports whether overload control is on.
func (o Overload) enabled() bool { return o.DrainLatencyHigh > 0 }

// withDefaults fills the zero values of an enabled config.
func (o Overload) withDefaults() Overload {
	if o.enabled() && o.Cooloff <= 0 {
		o.Cooloff = 250 * time.Millisecond
	}
	return o
}

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
	if c.RankBits <= 0 || c.RankBits > 63 {
		c.RankBits = 16
	}
	c.Overload = c.Overload.withDefaults()
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
// overload — on the goroutine that held the shard's execution lock, a
// submitter's, so keep it non-blocking (internal/node enqueues to its
// capture goroutine) — and OnPanic observes a queue's panic value, on
// the executing goroutine, before the engine re-panics.
type Hooks struct {
	Flight         *obs.FlightRecorder
	OnOverloadTrip func(shard int)
	OnPanic        func(shard int, r any)
	// Metrics, when non-nil, is handed to the per-shard persist
	// managers Checkpoint attaches (prefixed <MetricsPrefix>_shard<i>),
	// so WAL sticky-poisoning and fsync-retry state surface as gauges
	// on the daemon registry.
	Metrics       *obs.Registry
	MetricsPrefix string

	walPoisoned []*obs.Gauge // per shard, what WALPoisoned reads
}

// shard is one engine lane: a tree and the execution lock that owns it.
type shard struct {
	id int
	// exec is the execution lock. Its holder owns q, lsn, slowRuns and
	// closed; execute and publish require it.
	exec sync.Mutex
	q    *core.Tree
	// closed is set by Close under the lock; an executor that sees it
	// answers ErrClosed instead of executing.
	closed bool
	// ov is the admission-control config, swappable at runtime
	// (SetOverload) so operators and the chaos harness can tighten or
	// relax the latency bound on a live engine.
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
	// so a reader racing an execution can see a (value, meta) pair from two
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
	pushes, pops   *obs.Counter
	fulls, empties *obs.Counter
	backpressured  *obs.Counter
	shed           *obs.Counter
	drained        *obs.Histogram
}

// Engine is the sharded scheduling service.
type Engine struct {
	cfg    Config
	shards []*shard
	hooks  atomic.Pointer[Hooks]
	// closed is set at the start of Close; submits that observe it fail
	// with ErrClosed without touching a shard.
	closed atomic.Bool
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

// SetOverload replaces the admission-control config on every shard
// of a live engine (defaults applied as in Config). The zero value
// disables shedding; a latch already tripped still holds until its
// cooloff expires.
func (e *Engine) SetOverload(o Overload) {
	o = o.withDefaults()
	for _, s := range e.shards {
		s.ov.Store(&o)
	}
}

// New builds the engine, restoring shards from cfg.RestoreDir when set.
// It starts no goroutine: every execution runs on its submitter's.
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
		s := &shard{id: i, q: core.New(cfg.Order, cfg.Levels), hooks: &e.hooks}
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
// the returned Meta may be torn relative to Value when an execution races
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

// Submit routes each operation to its shard and executes each per-shard
// group on this goroutine under that shard's execution lock, waiting for
// the lock while another submitter holds it. Refused operations
// (backpressure, overload, closed engine, pop on an engine publishing
// empty) fail in place without holding up the rest of the batch. The
// returned slice has one Result per op, in order.
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
// engine stamps StageEnqueue immediately before it asks for the first
// execution lock, StageDequeue when the first group starts executing —
// so enqueue → dequeue is the wait for that lock — and StageApply when
// the last group has executed. A nil span costs one branch per stamp
// site — the untraced path.
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
	// Route every op first, each slot refused or marked routed (see
	// routedTo); [lo, hi] spans the shards that got work.
	lo, hi := len(e.shards), -1
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
						s.overloadEdge(false, 0)
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
		results[i] = Result{Elem: op.Elem, Shard: int32(sh)}
		lo, hi = min(lo, sh), max(hi, sh)
	}
	if hi < 0 {
		return
	}
	sp.Stamp(obs.StageEnqueue)
	for sh := lo; sh <= hi; sh++ {
		first := 0
		for first < len(results) && !results[first].routedTo(sh) {
			first++
		}
		if first == len(results) {
			continue
		}
		e.shards[sh].lockAndExecute(ops[first:], results[first:], sp)
	}
	sp.Stamp(obs.StageApply)
}

// routedTo reports whether r is a slot routed to shard sh and not yet
// executed. Routing leaves such a slot as Result{Elem, Shard}, Elem the
// op's element as routed (a bounded pop's bound already tightened).
// Execution turns it into a success, which carries LSN >= 1, or a
// failure, which carries an error, so Err == nil with LSN 0 can only
// mean "waiting".
func (r *Result) routedTo(sh int) bool { return r.Err == nil && r.LSN == 0 && r.Shard == int32(sh) }

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

// Close marks the engine closed, then marks each shard closed under its
// execution lock: once Close returns, no executor — a submitter or
// ApplyReplica — is inside a queue or can enter one. Submits that raced
// with Close complete or fail with ErrClosed; later submits fail with
// ErrClosed. Close is idempotent.
func (e *Engine) Close() {
	if e.closed.Swap(true) {
		return
	}
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

// lockAndExecute takes the execution lock, executes the ops routed to
// this shard and releases the lock. Once Close has marked the shard it
// executes nothing, answers those ops ErrClosed and reports false. A
// queue panic is shown to Hooks.OnPanic and re-panicked on the
// executing goroutine, with the lock released.
func (s *shard) lockAndExecute(ops []Op, results []Result, sp *obs.Span) bool {
	s.exec.Lock()
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
	if s.closed {
		for i := range results {
			if results[i].routedTo(s.id) {
				results[i] = Result{Err: ErrClosed}
			}
		}
		return false
	}
	s.execute(ops, results, sp)
	return true
}

// execute applies, in order, each op whose result slot is routed to
// this shard, overwriting the slot with its result; then it publishes
// the head/length/backpressure signals and re-judges overload. It is
// the only code that mutates a serving queue — submits and ApplyReplica
// both come through here — and the caller must hold s.exec.
func (s *shard) execute(ops []Op, results []Result, sp *obs.Span) {
	ov := *s.ov.Load()
	var start time.Time
	if ov.enabled() {
		start = time.Now()
	}
	sp.Stamp(obs.StageDequeue)
	n := 0
	for i := range ops {
		r := &results[i]
		if !r.routedTo(s.id) {
			continue
		}
		n++
		el := r.Elem
		switch ops[i].Kind {
		case OpPush:
			err := s.q.Push(el)
			switch {
			case err == nil:
				s.pushes.Inc()
				s.lsn++
				*r = Result{Shard: int32(s.id), LSN: s.lsn}
				continue
			case errors.Is(err, core.ErrFull):
				s.fulls.Inc()
			}
			*r = Result{Err: err}
		case OpPopBounded:
			if head, err := s.q.Peek(); err != nil || head.Value > el.Value {
				*r = Result{Err: ErrMiss}
				continue
			}
			fallthrough
		case OpPop:
			el, err := s.q.Pop()
			switch {
			case err == nil:
				s.pops.Inc()
				s.lsn++
				*r = Result{Elem: el, Shard: int32(s.id), LSN: s.lsn}
				continue
			case errors.Is(err, core.ErrEmpty):
				s.empties.Inc()
			}
			*r = Result{Elem: el, Err: err}
		default:
			*r = Result{Err: ErrInvalidOp}
		}
	}
	s.drained.Observe(uint64(n))
	s.publish()
	if ov.enabled() {
		s.updateOverload(ov, start)
	}
}

// updateOverload judges one execution that started running at start:
// the second consecutive slow one trips the latch, the first fast one
// clears it. One slow execution is a host stall that happened to land
// in it, two in a row is a shard that cannot keep up (DESIGN.md section
// 6a). Edges (not levels) feed the hooks.
func (s *shard) updateOverload(ov Overload, start time.Time) {
	took := time.Since(start)
	if took >= ov.DrainLatencyHigh {
		s.slowRuns++
	} else {
		s.slowRuns = 0
	}
	tripped := s.slowRuns >= 2
	if tripped {
		// Before the latch rises, so a push never sees it raised with a
		// stale deadline.
		s.overUntil.Store(time.Now().Add(ov.Cooloff).UnixNano())
	}
	if s.overloaded.Load() != tripped && s.overloaded.Swap(tripped) != tripped {
		s.overloadEdge(tripped, took)
	}
}

// overloadEdge reports one overload latch transition to the hooks.
// took is the run time of the deciding execution (0 when the edge came
// from the push path's cooloff expiry).
func (s *shard) overloadEdge(tripped bool, took time.Duration) {
	h := s.hooks.Load()
	if h == nil {
		return
	}
	b := uint64(0)
	if tripped {
		b = 1
	}
	h.Flight.Record(obs.FlightOverload, 0, uint64(s.id), b, uint64(took))
	if tripped && h.OnOverloadTrip != nil {
		h.OnOverloadTrip(s.id)
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
// it against identical geometry. Like a submit, it takes the shard's
// execution lock, waiting while another executor holds it, and executes
// on the caller's stack, all of ops or none. Results land one per op,
// in order, with Shard/LSN stamped exactly as on the primary; it
// returns ErrClosed, having applied nothing, once the engine has closed.
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
	for i, op := range ops {
		results[i] = Result{Elem: op.Elem, Shard: int32(sh)}
	}
	if !e.shards[sh].lockAndExecute(ops, results, nil) {
		return ErrClosed
	}
	return nil
}
