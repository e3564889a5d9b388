// Package engine is the sharded, concurrent serving layer over the
// software BMW-Tree: N shards, each owning one *core.Tree, behind one
// execution lock. The cycle-accurate R-BMW and RPU-BMW models are not
// served: their lockstep tests against core already prove them
// equivalent to it.
//
// The tree is intentionally single-goroutine — it models hardware with
// one issue port per cycle and carries zero synchronization on its hot
// paths. The engine is the one concurrency boundary: a tree is only
// ever touched by the holder of the engine's execution lock.
//
// The shards are the BMW tree's root node with M = N (DESIGN.md section
// 6). A push descends into the shard holding the fewest elements,
// leftmost on ties — the paper's least-count rule — and a pop takes the
// smallest head across shards. Both are decided against the live queues
// under the execution lock, so a node is an exact PIFO for a sequential
// caller, pops inside one batch included. Tied ranks are
// interchangeable: neither core nor the engine keeps FIFO order among
// them.
//
// Execution is caller-runs. A submit takes the execution lock and runs
// its batch in op order on its own stack — no wake-up, no hand-off, no
// allocation. A submitter that finds the lock held waits for it; the
// mutex is the only queue in front of the trees. ApplyReplica takes the
// same lock.
//
// Backpressure is typed: a push whose least-count shard is full — so
// every shard is — fails with ErrBackpressure and the caller decides
// whether to retry, shed, or slow down. A submit waits for an execution
// already holding the lock, never for queue space.
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
	// the queue: every shard is full. Transient — back off briefly and
	// retry.
	ErrBackpressure = errors.New("engine: shard backpressured")
	// ErrClosed reports a submit against a closed engine.
	ErrClosed = errors.New("engine: closed")
	// ErrInvalidOp reports an operation of unknown kind.
	ErrInvalidOp = errors.New("engine: invalid operation")
	// ErrMiss reports a bounded pop that took nothing: the engine was
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

// Routing selected how pushes mapped to shards when the engine routed
// them by flow hash or rank band.
//
// Deprecated: a push goes to the least-count shard; New ignores
// Config.Routing.
type Routing int

// RouteHash was the flow-hash routing policy.
//
// Deprecated: leave Config.Routing at its zero value.
const RouteHash Routing = 0

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
	// Deprecated: a contended submit waits on the execution lock; there
	// is no request ring to size.
	RingSize, BatchSize int
	// Routing and RankBits are ignored.
	//
	// Deprecated: a push goes to the least-count shard and a pop to the
	// smallest head; there is no routing policy to choose.
	Routing  Routing
	RankBits int
	// RestoreDir, when non-empty, restores every shard from the
	// per-shard checkpoint fan-out a previous Checkpoint wrote there.
	// A missing or empty directory is a fresh start, not an error.
	RestoreDir string
	// Overload is ignored.
	//
	// Deprecated: a push is refused only by backpressure; there is no
	// run-time admission latch to configure.
	Overload Overload
}

// Overload is an admission-control config that nothing reads.
//
// Deprecated: New ignores Config.Overload; a push is refused only when
// every shard is almost full (ErrBackpressure).
type Overload struct {
	HighFrac         float64
	DrainLatencyHigh time.Duration
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
	return c
}

// emptyHead is the published head value of an empty shard. PeekMin
// checks the published length first, and execution always decides
// against the queues themselves, so a real rank of MaxUint64 is served
// like any other.
const emptyHead = math.MaxUint64

// Hooks are the engine's incident-wiring points, set once via
// SetHooks before traffic: the flight recorder receives backpressure
// edges, and OnPanic observes a queue's panic value, on the executing
// goroutine, before the engine re-panics.
type Hooks struct {
	Flight  *obs.FlightRecorder
	OnPanic func(shard int, r any)
	// Metrics, when non-nil, is handed to the per-shard persist
	// managers Checkpoint attaches (prefixed <MetricsPrefix>_shard<i>),
	// so WAL sticky-poisoning and fsync-retry state surface as gauges
	// on the daemon registry.
	Metrics       *obs.Registry
	MetricsPrefix string

	walPoisoned []*obs.Gauge // per shard, what WALPoisoned reads
}

// shard is one sub-tree of the engine's root: a tree, its LSN, and the
// state it publishes for lock-free readers. The execution lock's holder
// owns q, lsn and ran.
type shard struct {
	id    int
	q     *core.Tree
	hooks *atomic.Pointer[Hooks]

	// lsn counts this shard's applied mutations, mirrored into lsnPub
	// after each execution for readers.
	lsn    uint64
	lsnPub atomic.Uint64
	// ran counts the ops the current execution applied here.
	ran uint64

	// Published state, written after each execution that touched the
	// shard and read by Len, ShardLen and PeekMin: queue length, smallest
	// rank (emptyHead when empty) with its metadata, and the almost-full
	// signal. headV/headM are separate words, so a reader racing an
	// execution can see a (value, meta) pair from two different heads;
	// PeekMin documents that tear.
	length     atomic.Int64
	headV      atomic.Uint64
	headM      atomic.Uint64
	almostFull atomic.Bool

	// Metrics (nil-safe when the engine is uninstrumented).
	pushes, pops   *obs.Counter
	fulls, empties *obs.Counter
	backpressured  *obs.Counter
	drained        *obs.Histogram
}

// Engine is the sharded scheduling service.
type Engine struct {
	cfg    Config
	shards []*shard
	hooks  atomic.Pointer[Hooks]

	// exec is the execution lock. Its holder owns every shard's queue
	// and LSN.
	exec sync.Mutex
	// closed is set by Close under the lock; an executor that sees it
	// answers ErrClosed instead of executing.
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
		e.shards = append(e.shards, &shard{id: i, q: core.New(cfg.Order, cfg.Levels), hooks: &e.hooks})
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

// PeekMin returns the engine's current global minimum — the smallest
// published shard head — without removing it, or ok=false when every
// shard publishes empty. It is the node-local half of the cluster's
// cross-node strict-merge PopMin: a client probes each node's minimum
// with this (via the wire protocol's OpPeek) and drains from the
// globally minimal head, the same merge a pop makes across shards one
// level down. The read is advisory: concurrent mutators can change the
// head before the caller acts, and the returned Meta may be torn
// relative to Value when an execution races the read (the merge keys on
// Value alone).
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

// Submit executes the batch on this goroutine under the execution lock,
// waiting for the lock while another submitter holds it. Refused
// operations (backpressure, closed engine, pop on an empty
// engine) fail in place without holding up the rest of the batch. The
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
	e.SubmitTraced(ops, results, nil, nil)
}

// SubmitTraced is SubmitInto carrying a request-lifecycle span: the
// engine stamps StageEnqueue immediately before it asks for the
// execution lock, StageDequeue once it holds it — so enqueue → dequeue
// is the wait for that lock — and StageApply when the batch has
// executed. A nil span costs one branch per stamp site — the untraced
// path.
//
// then, when non-nil, runs exactly once, still under the execution
// lock, after the batch's state is published — also for an empty batch
// and on a closed engine. Whatever then starts is ordered as the
// batches executed: the wire server takes its batch-tap lock there, so
// its tap sees batches in execution order.
//
// The batch runs in op order. A push goes to the shard with the fewest
// elements (leftmost on ties), where the backpressure gate judges it; a pop or bounded pop takes the smallest head across shards
// (leftmost on ties), answering ErrEmpty or ErrMiss only when every
// shard is empty or, for a bounded pop, when that head ranks above the
// bound. At order 4, a run of two or more consecutive pops of one kind
// and bound goes to the trees as runs (popRun), with the same results;
// at other orders Tree.PopRun loops the per-op walk, so there is
// nothing for a run to gain and every pop takes the per-op path.
func (e *Engine) SubmitTraced(ops []Op, results []Result, sp *obs.Span, then func()) {
	if len(results) != len(ops) {
		panic("engine: SubmitInto result slice length mismatch")
	}
	if len(ops) == 0 && then == nil {
		return
	}
	sp.Stamp(obs.StageEnqueue)
	cur := -1
	e.exec.Lock()
	defer e.release(&cur)
	if e.closed.Load() {
		for i := range results {
			results[i] = Result{Err: ErrClosed}
		}
		if then != nil {
			then()
		}
		return
	}
	sp.Stamp(obs.StageDequeue)
	for i := 0; i < len(ops); i++ {
		op := &ops[i]
		switch op.Kind {
		case OpPush:
			s := e.leastCount()
			cur = s.id
			if s.q.AlmostFull() {
				s.backpressured.Inc()
				results[i] = Result{Err: ErrBackpressure}
			} else {
				s.apply(OpPush, op.Elem, &results[i])
			}
		case OpPop, OpPopBounded:
			if e.cfg.Order == 4 {
				if j := runEnd(ops, i); j-i >= 2 {
					e.popRun(ops[i:j], results[i:j], &cur)
					i = j - 1
					continue
				}
			}
			s := e.leastHead()
			switch {
			case s != nil:
				cur = s.id
				s.apply(op.Kind, op.Elem, &results[i])
			case op.Kind == OpPop:
				results[i] = Result{Err: core.ErrEmpty}
			default:
				results[i] = Result{Err: ErrMiss}
			}
		default:
			results[i] = Result{Err: ErrInvalidOp}
		}
	}
	e.end()
	sp.Stamp(obs.StageApply)
	if then != nil {
		then()
	}
}

// popChunk is how many elements a shard's popRun takes from its tree
// per PopRun call, into a stack array.
const popChunk = 64

// runEnd returns the end of the run of pops that starts at the pop
// ops[i]: the consecutive ops of its kind and, for bounded pops, its
// bound.
func runEnd(ops []Op, i int) int {
	k, b := ops[i].Kind, ops[i].Elem.Value
	j := i + 1
	for j < len(ops) && ops[j].Kind == k && (k == OpPop || ops[j].Elem.Value == b) {
		j++
	}
	return j
}

// popRun executes a run of pops of one kind and bound with the results
// of the per-op loop. Each pass takes the least-head shard and pops it
// while its head ranks at most the run's bound, at most every other
// shard's head to its right, and below every head to its left: exactly
// the pops for which the per-op loop would pick that shard again. A
// pass that stops short re-picks; one that takes nothing has met a head
// above the bound, so every op left misses on that shard.
func (e *Engine) popRun(ops []Op, results []Result, cur *int) {
	kind, bound := ops[0].Kind, ops[0].Elem.Value
	if kind == OpPop {
		bound = math.MaxUint64
	}
	for done := 0; done < len(ops); {
		s := e.leastHead()
		if s == nil {
			err := ErrMiss
			if kind == OpPop {
				err = core.ErrEmpty
			}
			for i := done; i < len(results); i++ {
				results[i] = Result{Err: err}
			}
			return
		}
		*cur = s.id
		limit := bound
		for _, o := range e.shards {
			if o == s {
				continue
			}
			if h, err := o.q.Peek(); err == nil {
				if o.id < s.id {
					h.Value-- // above s's head, which wins ties only to its left
				}
				limit = min(limit, h.Value)
			}
		}
		n := s.popRun(limit, results[done:])
		if n == 0 {
			for i := done; i < len(ops); i++ {
				s.apply(kind, ops[i].Elem, &results[i])
			}
			return
		}
		done += n
	}
}

// leastCount returns the shard holding the fewest elements, leftmost on
// ties: the push rule of a BMW node, one level above the trees.
func (e *Engine) leastCount() *shard {
	best := e.shards[0]
	for _, s := range e.shards[1:] {
		if s.q.Len() < best.q.Len() {
			best = s
		}
	}
	return best
}

// leastHead returns the shard holding the smallest head, leftmost on
// ties, or nil when every shard is empty: the pop rule of a BMW node,
// one level above the trees. Heads are read only when two or more
// shards hold elements; a lone one is the minimum without looking.
func (e *Engine) leastHead() *shard {
	var best *shard
	held := 0
	for _, s := range e.shards {
		if s.q.Len() > 0 {
			if held++; best == nil {
				best = s
			}
		}
	}
	if held < 2 {
		return best
	}
	var head uint64
	best = nil
	for _, s := range e.shards {
		if el, err := s.q.Peek(); err == nil && (best == nil || el.Value < head) {
			best, head = s, el.Value
		}
	}
	return best
}

// Push submits one push. It returns nil on success, ErrBackpressure
// when every shard is full, or ErrClosed.
func (e *Engine) Push(el core.Element) error {
	var results [1]Result
	e.SubmitInto([]Op{PushOp(el)}, results[:])
	return results[0].Err
}

// Pop submits one pop: the smallest element across shards, or
// core.ErrEmpty when the engine is empty.
func (e *Engine) Pop() (core.Element, error) {
	var results [1]Result
	e.SubmitInto([]Op{PopOp()}, results[:])
	return results[0].Elem, results[0].Err
}

// Close marks the engine closed under the execution lock: once Close
// returns, no executor — a submitter or ApplyReplica — is inside a
// queue or can enter one. Submits that raced with Close complete or
// fail with ErrClosed; later submits fail with ErrClosed. Close is
// idempotent.
func (e *Engine) Close() {
	e.exec.Lock()
	e.closed.Store(true)
	e.exec.Unlock()
}

// ShardDrain empties shard i in pop order. It must only be called
// after Close has returned, when nothing can execute on the shard.
func (e *Engine) ShardDrain(i int) ([]core.Element, error) {
	if !e.closed.Load() {
		return nil, errors.New("engine: ShardDrain before Close")
	}
	s := e.shards[i]
	out := make([]core.Element, s.q.Len())
	return out[:s.q.PopRun(out, math.MaxUint64)], nil
}

// release ends an execution: it drops the execution lock and, when the
// execution panicked, shows the value to Hooks.OnPanic with the shard
// *cur was working on and re-panics on the executing goroutine. It must
// be deferred directly.
func (e *Engine) release(cur *int) {
	r := recover()
	e.exec.Unlock()
	if r != nil {
		if h := e.hooks.Load(); h != nil && h.OnPanic != nil {
			h.OnPanic(*cur, r)
		}
		panic(r)
	}
}

// end closes an execution: every shard it touched publishes its new
// state and records how many ops it applied.
func (e *Engine) end() {
	for _, s := range e.shards {
		if s.ran > 0 {
			s.drained.Observe(s.ran)
			s.ran = 0
			s.publish()
		}
	}
}

// apply runs one op on the shard's tree and writes its result to r. It
// and popRun are the only code that mutates a serving queue — submits
// come through both, ApplyReplica through apply — and the caller must
// hold the execution lock.
func (s *shard) apply(kind OpKind, el core.Element, r *Result) {
	s.ran++
	switch kind {
	case OpPush:
		if err := s.q.Push(el); err != nil {
			s.fulls.Inc()
			*r = Result{Err: err}
			return
		}
		s.pushes.Inc()
		s.lsn++
		*r = Result{Shard: int32(s.id), LSN: s.lsn}
	case OpPopBounded:
		if head, err := s.q.Peek(); err != nil || head.Value > el.Value {
			*r = Result{Err: ErrMiss}
			return
		}
		fallthrough
	case OpPop:
		el, err := s.q.Pop()
		if err != nil {
			s.empties.Inc()
			*r = Result{Err: err}
			return
		}
		s.pops.Inc()
		s.lsn++
		*r = Result{Elem: el, Shard: int32(s.id), LSN: s.lsn}
	default:
		*r = Result{Err: ErrInvalidOp}
	}
}

// popRun pops the shard's tree into rs, in order, while its head ranks
// at most bound, and returns how many it popped. Each pop's result, LSN
// and counters are those apply(OpPop) would give it. The caller must
// hold the execution lock.
func (s *shard) popRun(bound uint64, rs []Result) int {
	var buf [popChunk]core.Element
	done := 0
	for done < len(rs) {
		n := s.q.PopRun(buf[:min(len(buf), len(rs)-done)], bound)
		for i, el := range buf[:n] {
			s.lsn++
			rs[done+i] = Result{Elem: el, Shard: int32(s.id), LSN: s.lsn}
		}
		done += n
		if n < len(buf) {
			break
		}
	}
	s.ran += uint64(done)
	s.pops.Add(uint64(done))
	return done
}

// publish refreshes the shard's published state from its queue,
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
// apply path. It bypasses the least-count and least-head choices and
// the backpressure gate: a follower must
// apply the primary's history verbatim, in the primary's per-shard LSN
// order, and the history is known to fit because the primary executed
// it against identical geometry. Like a submit, it takes the execution
// lock, waiting while another executor holds it, and executes on the
// caller's stack, all of ops or none. Results land one per op, in
// order, with Shard/LSN stamped exactly as on the primary; it returns
// ErrClosed, having applied nothing, once the engine has closed.
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
	cur := sh
	e.exec.Lock()
	defer e.release(&cur)
	if e.closed.Load() {
		for i := range results {
			results[i] = Result{Err: ErrClosed}
		}
		return ErrClosed
	}
	s := e.shards[sh]
	for i, op := range ops {
		s.apply(op.Kind, op.Elem, &results[i])
	}
	e.end()
	return nil
}
