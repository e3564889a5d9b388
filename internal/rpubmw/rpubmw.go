// Package rpubmw is a cycle-accurate simulation of the RPU-driven
// BMW-Tree (RPU-BMW) hardware design of Section 5 of the paper.
//
// Instead of holding every node in flip-flops, RPU-BMW stores the nodes
// of level i (i >= 2) in SRAM_i and drives each level with one Ranking
// Processing Unit (RPU). The root node is the only node of level 1 and
// permanently occupies RPU_1's registers. Nodes are loaded into an RPU,
// operated on, and written back — time-sharing the RPU like processes
// share a CPU. The simulation reproduces the optimised design with
// combinational logic (Section 5.2.2) and operation hiding on
// write-first Simple Dual-Port RAMs (Section 5.2.3):
//
//   - push: the RPU issues the SRAM read in the signal cycle; when the
//     node arrives one cycle later the comparison happens
//     combinationally, the loser is forwarded to the next level, and the
//     node is written back in the same cycle. Pushes issue one per cycle
//     — back-to-back pushes to the same node are correct because the
//     read of the second push collides with the write-back of the first
//     and the write-first SRAM returns the fresh data.
//   - pop: the RPU reads its node, pops the minimum combinationally,
//     signals the child level, and waits one more cycle for the lifted
//     substitute before writing back. A new pop can be issued every two
//     cycles; the cycle immediately after a pop must be idle (both
//     push_available and pop_available drop), because a push issued then
//     would read the node before the pop's delayed write-back — the
//     stale-read hazard that makes pop-push and pop-pop sequences
//     illegal (Section 5.2.3).
//   - the common push-pop sequence therefore costs 3 cycles, the
//     paper's headline RPU-BMW rate (Figure 7).
//
// The package tests prove operation-for-operation equivalence with the
// golden model of internal/core under every legal schedule, and
// demonstrate that violating the idle-cycle rule really does trip the
// SRAM port hazard the paper designs around.
package rpubmw

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
)

// MaxOrder bounds M so that SRAM words (whole nodes) can be fixed-size
// value types with exact copy semantics, like hardware words.
const MaxOrder = 16

// slot is one element position: value, metadata, sub-tree counter
// (0 = empty). born is the low 32 bits of the clock cycle when the
// element entered the machine — the sojourn-probe tag. It rides in the
// padding after count (the slot stays 24 bytes) and is observability
// side-state, not part of the modelled storage word.
type slot struct {
	val   uint64
	meta  uint64
	count uint32
	born  uint32
}

// node is one SRAM word: up to MaxOrder element slots.
type node struct {
	slots [MaxOrder]slot
}

// fetch is an operation whose SRAM read was issued in the previous
// cycle; its node data arrives this cycle.
type fetch struct {
	valid bool
	kind  hw.OpKind
	addr  int // node address within this level's SRAM
	val   uint64
	meta  uint64
	born  uint32 // sojourn tag travelling with a displaced push payload
}

// liftWait is a pop resident in an RPU: the node has been loaded, its
// minimum popped and the child signalled; the RPU holds the node until
// the substitute element is lifted from below, then writes back.
type liftWait struct {
	valid bool
	addr  int
	node  node
	vac   int // slot index awaiting the lifted element
}

// Sim is the cycle-accurate RPU-BMW simulator. It is intentionally
// confined to a single goroutine — it models clocked hardware with one
// issue port per cycle and carries no synchronization; concurrent
// callers go through internal/engine, where only the holder of the
// engine's execution lock touches a shard's queue.
type Sim struct {
	m, l     int
	capacity int
	size     int

	root     [MaxOrder]slot     // level 1: the root node in RPU_1 registers
	rams     []*hw.SDPRAM[node] // rams[i] backs level i+2 (levels 2..L)
	fetchQ   []fetch            // fetchQ[i] for level i+2
	liftQ    []liftWait         // liftQ[i] for level i+2
	rootLift liftWait           // root's pending substitute slot

	cycle     uint64
	available bool // push/pop availability (drops for the cycle after a pop)

	// instr is the attached observability state (see instrument.go);
	// nil means uninstrumented and every hook is a single nil branch.
	// It lives beside the per-cycle fields so the hooks' nil checks
	// read a cache line every Tick already touches.
	instr *instrumentation

	// Strict rejects issue sequences the hardware forbids (an operation
	// in the cycle immediately after a pop). With Strict disabled the
	// simulator executes them anyway so tests can observe the SRAM
	// structural hazard they cause.
	Strict bool

	// Plain gates issues per the unoptimised Section 5.2.1 design —
	// sequential logic without operation hiding: a push occupies the
	// interface for 3 cycles and a pop for 6. It is the ablation knob
	// quantifying what combinational logic + operation hiding buy
	// (Sections 5.2.2-5.2.3). The internal dataflow stays the same;
	// only the issue rate changes.
	Plain    bool
	cooldown int

	pushes, pops uint64
}

// New creates an RPU-BMW simulator for an order-m, l-level tree.
// It panics if m exceeds MaxOrder.
func New(m, l int) *Sim {
	if m > MaxOrder {
		panic(fmt.Sprintf("rpubmw: order %d exceeds MaxOrder %d", m, MaxOrder))
	}
	core.NumNodes(m, l) // validates shape
	s := &Sim{
		m:         m,
		l:         l,
		capacity:  core.Capacity(m, l),
		available: true,
		Strict:    true,
	}
	words := m // level 2 has m nodes
	for lvl := 2; lvl <= l; lvl++ {
		s.rams = append(s.rams, hw.NewSDPRAM[node](words))
		words *= m
	}
	s.fetchQ = make([]fetch, len(s.rams))
	s.liftQ = make([]liftWait, len(s.rams))
	return s
}

// Order, Levels, Len, Cap, Cycle, AlmostFull mirror the R-BMW
// simulator's accessors.
func (s *Sim) Order() int       { return s.m }
func (s *Sim) Levels() int      { return s.l }
func (s *Sim) Len() int         { return s.size }
func (s *Sim) Cap() int         { return s.capacity }
func (s *Sim) Cycle() uint64    { return s.cycle }
func (s *Sim) AlmostFull() bool { return s.size >= s.capacity }

// PushAvailable and PopAvailable mirror the handshake of Section 5.2.3:
// both drop for exactly one cycle after a pop (and, in Plain mode, for
// the full 5.2.1 operation latencies).
func (s *Sim) PushAvailable() bool { return s.available && s.cooldown == 0 }
func (s *Sim) PopAvailable() bool  { return s.available && s.cooldown == 0 }

// Stats returns the number of pushes and pops issued. RAMStats sums the
// port activity of every level's SRAM.
func (s *Sim) Stats() (pushes, pops uint64) { return s.pushes, s.pops }

// RAMStats returns total SRAM reads, writes, and read-during-write
// collisions (operation-hiding events) across all levels.
func (s *Sim) RAMStats() (reads, writes, collisions uint64) {
	for _, r := range s.rams {
		a, b, c := r.Stats()
		reads += a
		writes += b
		collisions += c
	}
	return
}

// Quiescent reports whether no operation is in flight in any RPU.
func (s *Sim) Quiescent() bool {
	if s.rootLift.valid {
		return false
	}
	for i := range s.fetchQ {
		if s.fetchQ[i].valid || s.liftQ[i].valid {
			return false
		}
	}
	for _, r := range s.rams {
		if r.Pending() {
			return false
		}
	}
	return true
}

// SlotState exposes the committed tree state for the shared invariant
// checker, reading the root registers and peeking the SRAMs. Valid only
// when the pipeline is quiescent.
func (s *Sim) SlotState(n, i int) (value uint64, count uint32, ok bool) {
	if n == 0 {
		sl := s.root[i]
		return sl.val, sl.count, sl.count != 0
	}
	lvl, local := s.locate(n)
	nd := s.rams[lvl-2].Peek(local)
	sl := nd.slots[i]
	return sl.val, sl.count, sl.count != 0
}

// locate converts a global breadth-first node index into (level, local
// index within the level).
func (s *Sim) locate(n int) (level, local int) {
	level = 1
	count := 1
	start := 0
	for n >= start+count {
		start += count
		count *= s.m
		level++
	}
	return level, n - start
}

// Tick advances one clock cycle with the given external signal,
// returning the popped element for a pop (combinational in the issuing
// cycle, the root being register-resident).
func (s *Sim) Tick(op hw.Op) (*core.Element, error) {
	// Issue legality.
	switch op.Kind {
	case hw.Push:
		if s.Strict && !s.PushAvailable() {
			return nil, s.reject(fmt.Errorf("rpubmw: push issued while push_available=0"))
		}
		if s.AlmostFull() {
			return nil, s.reject(core.ErrFull)
		}
	case hw.Pop:
		if s.Strict && !s.PopAvailable() {
			return nil, s.reject(fmt.Errorf("rpubmw: pop issued while pop_available=0"))
		}
		if s.size == 0 {
			return nil, s.reject(core.ErrEmpty)
		}
	}

	var ckind hw.CycleKind
	wasAvailable := s.available
	if s.instr != nil {
		ckind = s.classifyCycle(op)
	}
	s.cycle++

	// Clock edge: SRAM writes commit, reads issued last cycle capture
	// their data (write-first on collisions).
	for _, r := range s.rams {
		r.Tick()
	}

	// Snapshot this cycle's arrivals, freeing the fetch registers for
	// reads issued below.
	arrivals := make([]fetch, len(s.fetchQ))
	copy(arrivals, s.fetchQ)
	for i := range s.fetchQ {
		s.fetchQ[i] = fetch{}
	}

	// Process arrivals level by level. Each arrival owns its level's
	// RPU this cycle; the only cross-level interaction is the lift of a
	// popped substitute into the parent RPU (or the root registers).
	for idx, ar := range arrivals {
		if !ar.valid {
			continue
		}
		s.processArrival(idx, idx+2, ar)
	}

	// External operation at the root (RPU_1 registers).
	result := s.rootOp(op)

	s.available = op.Kind != hw.Pop
	if s.Plain {
		// Section 5.2.1 sequential-logic latencies: the RPU interface is
		// occupied for the remaining cycles of the operation.
		switch op.Kind {
		case hw.Push:
			s.cooldown = 2
		case hw.Pop:
			s.cooldown = 5
		default:
			if s.cooldown > 0 {
				s.cooldown--
			}
		}
	}

	// End of cycle: record observability facts.
	if s.instr != nil {
		s.instr.endCycle(s, ckind, op, wasAvailable)
	}
	return result, nil
}

// processArrival runs one level's RPU for the cycle.
func (s *Sim) processArrival(idx, lvl int, ar fetch) {
	if s.instr != nil {
		s.instr.traceOp(s.cycle, int64(lvl), ar.kind)
	}
	nd, ok := s.rams[idx].Data()
	if !ok {
		panic("rpubmw: arrival without SRAM data")
	}
	switch ar.kind {
	case hw.Push:
		s.stepPush(lvl, ar, nd)
	case hw.Pop:
		s.stepPop(lvl, ar, nd)
	}
}

// rootOp applies the external operation to the register-resident root.
func (s *Sim) rootOp(op hw.Op) (result *core.Element) {
	if s.instr != nil {
		s.instr.traceOp(s.cycle, 1, op.Kind)
	}
	switch op.Kind {
	case hw.Push:
		s.rootPush(op.Value, op.Meta)
		s.size++
		s.pushes++
	case hw.Pop:
		result = s.rootPop()
		s.size--
		s.pops++
	}
	return result
}

// rootPush applies a push to the register-resident root: park in the
// leftmost empty slot or displace down the least-loaded sub-tree,
// issuing the SRAM_2 read for the displaced value.
func (s *Sim) rootPush(val, meta uint64) {
	born := uint32(s.cycle)
	for i := 0; i < s.m; i++ {
		if s.root[i].count == 0 {
			s.root[i] = slot{val: val, meta: meta, count: 1, born: born}
			if s.instr != nil {
				s.instr.pushDepth.Observe(1)
			}
			return
		}
	}
	min := 0
	for i := 1; i < s.m; i++ {
		if s.root[i].count < s.root[min].count {
			min = i
		}
	}
	s.root[min].count++
	if val < s.root[min].val {
		val, s.root[min].val = s.root[min].val, val
		meta, s.root[min].meta = s.root[min].meta, meta
		born, s.root[min].born = s.root[min].born, born
	}
	s.issueRead(2, min, fetch{valid: true, kind: hw.Push, addr: min, val: val, meta: meta, born: born})
}

// rootPop pops the root's minimum and, if the sub-tree below still holds
// elements, issues the SRAM_2 read for the substitute.
func (s *Sim) rootPop() *core.Element {
	j := minSlotOf(s.root[:s.m])
	out := &core.Element{Value: s.root[j].val, Meta: s.root[j].meta}
	born := s.root[j].born
	s.root[j].count--
	if s.root[j].count == 0 {
		s.root[j] = slot{}
		if s.instr != nil {
			s.instr.popDepth.Observe(1)
			s.instr.sojourn.Observe(uint64(uint32(s.cycle) - born))
		}
		return out
	}
	s.rootLift = liftWait{valid: true, vac: j}
	s.issueRead(2, j, fetch{valid: true, kind: hw.Pop, addr: j})
	if s.instr != nil {
		s.instr.sojourn.Observe(uint64(uint32(s.cycle) - born))
	}
	return out
}

// stepPush processes a push whose node has arrived from SRAM: place or
// displace, write the node back this cycle, and forward the loser.
func (s *Sim) stepPush(lvl int, ar fetch, nd node) {
	placed := false
	for i := 0; i < s.m; i++ {
		if nd.slots[i].count == 0 {
			nd.slots[i] = slot{val: ar.val, meta: ar.meta, count: 1, born: ar.born}
			placed = true
			if s.instr != nil {
				s.instr.pushDepth.Observe(uint64(lvl))
			}
			break
		}
	}
	if !placed {
		min := 0
		for i := 1; i < s.m; i++ {
			if nd.slots[i].count < nd.slots[min].count {
				min = i
			}
		}
		nd.slots[min].count++
		val, meta, born := ar.val, ar.meta, ar.born
		if val < nd.slots[min].val {
			val, nd.slots[min].val = nd.slots[min].val, val
			meta, nd.slots[min].meta = nd.slots[min].meta, meta
			born, nd.slots[min].born = nd.slots[min].born, born
		}
		if lvl == s.l {
			// Impossible when the almost_full handshake is respected:
			// the counters steer pushes into sub-trees with vacancies.
			panic("rpubmw: push descended past the last level")
		}
		addr := ar.addr*s.m + min
		s.issueRead(lvl+1, addr, fetch{valid: true, kind: hw.Push, addr: addr, val: val, meta: meta, born: born})
	}
	s.rams[lvl-2].Write(ar.addr, nd)
}

// stepPop processes a pop whose node has arrived: lift the minimum to
// the waiting parent, then either finish (write back now) or signal the
// child and hold the node until the substitute arrives.
func (s *Sim) stepPop(lvl int, ar fetch, nd node) {
	j := minSlotOf(nd.slots[:s.m])
	lifted := nd.slots[j]

	// Deliver the lifted element to the level above.
	if lvl == 2 {
		if !s.rootLift.valid {
			panic("rpubmw: lift arrived with no waiting root slot")
		}
		s.root[s.rootLift.vac].val = lifted.val
		s.root[s.rootLift.vac].meta = lifted.meta
		s.root[s.rootLift.vac].born = lifted.born
		s.rootLift = liftWait{}
	} else {
		lw := &s.liftQ[lvl-3]
		if !lw.valid {
			panic("rpubmw: lift arrived with no waiting parent RPU")
		}
		lw.node.slots[lw.vac].val = lifted.val
		lw.node.slots[lw.vac].meta = lifted.meta
		lw.node.slots[lw.vac].born = lifted.born
		s.rams[lvl-3].Write(lw.addr, lw.node)
		*lw = liftWait{}
	}

	// Remove the lifted element from this node.
	nd.slots[j].count--
	if nd.slots[j].count == 0 {
		nd.slots[j] = slot{}
		s.rams[lvl-2].Write(ar.addr, nd)
		if s.instr != nil {
			s.instr.popDepth.Observe(uint64(lvl))
		}
		return
	}
	if lvl == s.l {
		panic("rpubmw: non-terminal pop at the last level")
	}
	// Hold the node awaiting the substitute from below.
	if s.liftQ[lvl-2].valid {
		panic("rpubmw: RPU lift register busy (schedule violates pipeline spacing)")
	}
	s.liftQ[lvl-2] = liftWait{valid: true, addr: ar.addr, node: nd, vac: j}
	s.issueRead(lvl+1, ar.addr*s.m+j, fetch{valid: true, kind: hw.Pop, addr: ar.addr*s.m + j})
}

// issueRead presents the read address to the level's SRAM and parks the
// operation in the level's fetch register; the data arrives next cycle.
func (s *Sim) issueRead(lvl, addr int, f fetch) {
	if s.fetchQ[lvl-2].valid {
		panic(fmt.Sprintf("rpubmw: level %d fetch register busy (double read)", lvl))
	}
	s.rams[lvl-2].Read(addr)
	s.fetchQ[lvl-2] = f
}

// minSlotOf returns the index of the leftmost minimum-value occupied
// slot.
func minSlotOf(slots []slot) int {
	min := -1
	for i := range slots {
		if slots[i].count == 0 {
			continue
		}
		if min < 0 || slots[i].val < slots[min].val {
			min = i
		}
	}
	if min < 0 {
		panic("rpubmw: min of empty node")
	}
	return min
}

// Drain pops every element, inserting the mandatory idle cycles, and
// returns the dequeue order. Test and example convenience.
func (s *Sim) Drain() []core.Element {
	out := make([]core.Element, 0, s.size)
	for s.size > 0 {
		if !s.available {
			s.Tick(hw.NopOp())
			continue
		}
		e, err := s.Tick(hw.PopOp())
		if err != nil {
			panic(err)
		}
		out = append(out, *e)
	}
	for !s.Quiescent() {
		s.Tick(hw.NopOp())
	}
	return out
}
