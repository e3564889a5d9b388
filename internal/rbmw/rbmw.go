// Package rbmw is a cycle-accurate simulation of the register-based
// BMW-Tree (R-BMW) hardware design of Section 4 of the paper.
//
// Every tree node is a modular building block held in flip-flops. The
// pipeline works in waves: an operation issued at the root descends one
// level per clock cycle. The simulation reproduces the optimised design
// with sustained transfer (Section 4.2.2):
//
//   - a push can be issued every cycle (push_available is always 1);
//   - a pop makes pop_available 0 for the following cycle, so two
//     consecutive pops are illegal; pop_available returns to 1 after a
//     push or a null signal;
//   - a push-pop (or pop-push) consecutive sequence therefore completes
//     in 2 cycles, the paper's headline R-BMW rate;
//   - the pop result is emitted combinationally in the issuing cycle via
//     o_pop_result.
//
// Sustained transfer makes every node continuously report its smallest
// element to its parent as combinational logic, so a parent consuming a
// pop can graft the child's minimum in the same cycle. Crucially, a
// node's reported minimum reflects a push being processed at that node
// in the same cycle (the push's effect is pure node-local combinational
// logic), but can never reflect an in-flight pop (that would chain
// combinational paths through every level) — which is exactly why the
// design forbids back-to-back pops.
//
// The simulation keeps per-node registered state and advances it with
// the same two-phase discipline: all push waves are applied first (their
// results are visible combinationally), then pop waves read their
// child's post-push state. The package test suite proves the resulting
// behaviour is operation-for-operation identical to the golden software
// model in internal/core for every legal issue schedule.
package rbmw

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
)

// slot mirrors the pifo_data storage of one element inside a building
// block: value, metadata and the sub-tree counter. born is the low 32
// bits of the clock cycle when the element entered the machine — the
// sojourn-probe tag, carried in the padding after count so the slot
// stays 24 bytes. It is observability side-state, not part of the
// modelled register word.
type slot struct {
	val   uint64
	meta  uint64
	count uint32
	born  uint32
}

// wave is an operation travelling down the pipeline: it is processed at
// node during the current cycle. Push waves carry the displaced value
// (and its born tag); pop waves recompute the node's minimum slot
// locally (autonomous nodes — Section 3.3). Field order packs born into
// what used to be padding so the struct stays 32 bytes.
type wave struct {
	node int
	val  uint64
	meta uint64
	born uint32
	push bool
}

// Sim is the cycle-accurate R-BMW simulator. It is intentionally
// confined to a single goroutine — it models clocked hardware with one
// issue port per cycle and carries no synchronization; concurrent
// callers go through internal/engine, where only the holder of the
// engine's execution lock touches a shard's queue.
type Sim struct {
	m, l     int
	nodes    []slot
	numNodes int
	size     int
	capacity int

	cycle uint64

	// instr is the attached observability state (see instrument.go);
	// nil means uninstrumented and every hook is a single nil branch.
	// It lives beside the per-cycle fields so the hooks' nil checks
	// read a cache line the step functions already touch.
	instr *instrumentation

	// Sustained selects the sustained-transfer optimisation of Section
	// 4.2.2 (the default). When disabled, the simulator gates issues per
	// the plain sequential-logic design of Section 4.2.1: a pop occupies
	// the interface for three cycles, blocking any new operation for the
	// following two. The functional wave behaviour is identical; only
	// the issue rate changes — this is the ablation knob that quantifies
	// what sustained transfer buys.
	Sustained bool

	popCooldown  int
	pushCooldown int

	// waves due for processing in the next cycle.
	next []wave
	// scratch for the current cycle.
	cur []wave

	pushes, pops uint64
}

// New creates an R-BMW simulator for an order-m, l-level tree.
func New(m, l int) *Sim {
	n := core.NumNodes(m, l)
	return &Sim{
		m:         m,
		l:         l,
		nodes:     make([]slot, n*m),
		numNodes:  n,
		capacity:  n * m,
		Sustained: true,
	}
}

// Order returns M. Levels returns L. Len returns the stored element
// count and Cap the capacity, all as in the golden model.
func (s *Sim) Order() int  { return s.m }
func (s *Sim) Levels() int { return s.l }
func (s *Sim) Len() int    { return s.size }
func (s *Sim) Cap() int    { return s.capacity }

// Cycle returns the number of clock cycles elapsed.
func (s *Sim) Cycle() uint64 { return s.cycle }

// AlmostFull mirrors the almost_full signal: no new push may be issued.
func (s *Sim) AlmostFull() bool { return s.size >= s.capacity }

// PushAvailable mirrors the push_available signal; with sustained
// transfer it is constantly 1 (Section 4.2.2); in plain mode a pop
// blocks pushes for two cycles.
func (s *Sim) PushAvailable() bool { return s.pushCooldown == 0 }

// PopAvailable mirrors the pop_available signal: 0 in the cycle
// immediately after a pop (two cycles in plain mode).
func (s *Sim) PopAvailable() bool { return s.popCooldown == 0 }

// SlotState exposes registered node state for the shared invariant
// checker. Note that in-flight waves make intermediate states transient;
// invariants are guaranteed only when the pipeline is quiescent (see
// Quiescent).
func (s *Sim) SlotState(n, i int) (value uint64, count uint32, ok bool) {
	sl := s.nodes[n*s.m+i]
	return sl.val, sl.count, sl.count != 0
}

// Quiescent reports whether no waves remain in the pipeline.
func (s *Sim) Quiescent() bool { return len(s.next) == 0 }

// Stats returns the number of pushes and pops issued so far.
func (s *Sim) Stats() (pushes, pops uint64) { return s.pushes, s.pops }

// Tick advances the simulation by one clock cycle with the given
// external signal and returns the popped element when op is a pop (the
// o_pop_result output, valid combinationally in the same cycle).
//
// Illegal signals — push when almost_full, pop when empty, pop when
// pop_available is 0 — return an error without consuming the cycle,
// matching a testbench that respects the handshake.
func (s *Sim) Tick(op hw.Op) (*core.Element, error) {
	switch op.Kind {
	case hw.Push:
		if s.pushCooldown > 0 {
			return nil, s.reject(fmt.Errorf("rbmw: push issued while push_available=0"))
		}
		if s.AlmostFull() {
			return nil, s.reject(core.ErrFull)
		}
	case hw.Pop:
		if s.popCooldown > 0 {
			return nil, s.reject(fmt.Errorf("rbmw: pop issued while pop_available=0 (consecutive pops are illegal)"))
		}
		if s.size == 0 {
			return nil, s.reject(core.ErrEmpty)
		}
	}

	s.cycle++
	var ckind hw.CycleKind
	if s.instr != nil {
		ckind = s.classifyCycle(op)
	}
	s.cur, s.next = s.next, s.cur[:0]

	// Phase 1: push waves, including a newly issued push at the root.
	// Their effects are node-local combinational logic and are visible to
	// this cycle's pop waves (sustained transfer reports post-push
	// minima).
	if op.Kind == hw.Push {
		s.cur = append(s.cur, wave{node: 0, push: true, val: op.Value, meta: op.Meta, born: uint32(s.cycle)})
		s.size++
		s.pushes++
	}
	for _, w := range s.cur {
		if w.push {
			s.stepPush(w)
		}
	}

	// Phase 2: pop waves, including a newly issued pop at the root.
	var result *core.Element
	if op.Kind == hw.Pop {
		sl := s.nodes[s.minSlot(0)]
		s.stepPop(wave{node: 0})
		result = &core.Element{Value: sl.val, Meta: sl.meta}
		s.size--
		s.pops++
		if s.instr != nil {
			s.instr.sojourn.Observe(uint64(uint32(s.cycle) - sl.born))
		}
	}
	for _, w := range s.cur {
		if !w.push {
			s.stepPop(w)
		}
	}

	// Availability handshake: with sustained transfer, pop_available
	// drops for one cycle after a pop and returns after a push or null
	// signal; in plain mode a pop blocks everything for two cycles.
	if op.Kind == hw.Pop {
		if s.Sustained {
			s.popCooldown = 1
		} else {
			s.popCooldown = 2
			s.pushCooldown = 2
		}
	} else {
		if s.popCooldown > 0 {
			s.popCooldown--
		}
		if s.pushCooldown > 0 {
			s.pushCooldown--
		}
	}

	// End of cycle: record observability facts.
	if s.instr != nil {
		s.instr.endCycle(s, ckind)
	}
	return result, nil
}

// stepPush performs one node's share of a push (Section 3.2 steps 1-2):
// park in the leftmost empty slot, or displace down the least-loaded
// sub-tree.
func (s *Sim) stepPush(w wave) {
	lvl := 0
	if s.instr != nil {
		lvl = s.level(w.node)
		s.instr.traceWave(s.cycle, lvl, true)
	}
	base := w.node * s.m
	for i := 0; i < s.m; i++ {
		if s.nodes[base+i].count == 0 {
			s.nodes[base+i] = slot{val: w.val, meta: w.meta, count: 1, born: w.born}
			if s.instr != nil {
				s.instr.pushDepth.Observe(uint64(lvl))
			}
			return
		}
	}
	min := 0
	for i := 1; i < s.m; i++ {
		if s.nodes[base+i].count < s.nodes[base+min].count {
			min = i
		}
	}
	sl := &s.nodes[base+min]
	sl.count++
	val, meta, born := w.val, w.meta, w.born
	if val < sl.val {
		val, sl.val = sl.val, val
		meta, sl.meta = sl.meta, meta
		born, sl.born = sl.born, born
	}
	child := w.node*s.m + min + 1
	if child >= s.numNodes {
		// Descending below the last level is impossible when the
		// almost_full handshake is respected: the counters steer pushes
		// into sub-trees with vacancies.
		panic("rbmw: push descended past the last level")
	}
	s.next = append(s.next, wave{node: child, push: true, val: val, meta: meta, born: born})
}

// stepPop performs one node's share of a pop with sustained transfer:
// the node recomputes its minimum slot (the element its parent grafted
// in the previous cycle, or the popped result at the root), then refills
// it with the child's combinational minimum — which already reflects a
// push processed at the child this cycle.
func (s *Sim) stepPop(w wave) {
	lvl := 0
	if s.instr != nil {
		lvl = s.level(w.node)
		s.instr.traceWave(s.cycle, lvl, false)
	}
	j := s.minSlot(w.node)
	sl := &s.nodes[j]
	sl.count--
	if sl.count == 0 {
		*sl = slot{}
		if s.instr != nil {
			s.instr.popDepth.Observe(uint64(lvl))
		}
		return
	}
	si := j - w.node*s.m
	child := w.node*s.m + si + 1
	cs := s.nodes[s.minSlot(child)]
	sl.val, sl.meta = cs.val, cs.meta
	sl.born = cs.born
	s.next = append(s.next, wave{node: child})
}

// minSlot returns the flat index of the leftmost minimum-value occupied
// slot of node n. The leftmost tie-break matters: the parent's graft
// decision and the child's own recomputation one cycle later must select
// the same slot.
func (s *Sim) minSlot(n int) int {
	base := n * s.m
	min := -1
	for i := 0; i < s.m; i++ {
		if s.nodes[base+i].count == 0 {
			continue
		}
		if min < 0 || s.nodes[base+i].val < s.nodes[base+min].val {
			min = i
		}
	}
	if min < 0 {
		// An occupied parent slot guarantees a non-empty child in a
		// healthy tree.
		panic(fmt.Sprintf("rbmw: minSlot on empty node %d", n))
	}
	return base + min
}

// Drain pops every stored element (inserting the null cycles the
// handshake requires) and returns them in dequeue order. It is a test
// and example convenience, not a hardware operation.
func (s *Sim) Drain() []core.Element {
	out := make([]core.Element, 0, s.size)
	for s.size > 0 {
		if !s.PopAvailable() {
			s.Tick(hw.NopOp())
			continue
		}
		e, err := s.Tick(hw.PopOp())
		if err != nil {
			panic(err)
		}
		out = append(out, *e)
	}
	// Let the last waves settle so the tree is quiescent.
	for !s.Quiescent() {
		s.Tick(hw.NopOp())
	}
	return out
}
