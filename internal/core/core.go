// Package core implements the Balanced Multi-Way sorting tree (BMW-Tree)
// of Yao et al., "BMW Tree: Large-scale, High-throughput and Modular PIFO
// Implementation using Balanced Multi-Way Sorting Tree" (SIGCOMM 2023),
// Section 3.
//
// The tree is the golden software model for the cycle-accurate hardware
// simulations in internal/rbmw and internal/rpubmw: it defines the exact
// functional behaviour (which element each push displaces, which element
// each pop lifts) that the pipelined designs must reproduce.
//
// A BMW-Tree of order M with L levels stores up to M(M^L-1)/(M-1)
// elements. Each node holds up to M unsorted elements; the i-th element
// of a node roots the i-th sub-tree below the node. The heap property
// holds per element: an element's value is less than or equal to every
// value in the sub-tree it roots. Each element carries a counter equal to
// the number of elements in its sub-tree, itself included; a counter of
// zero marks an empty slot, exactly as the hardware encodes vacancy.
package core

import (
	"errors"
	"fmt"

	"repro/internal/obs"
)

// Element is one entry of the priority queue: a packet reference. Value
// is the rank (smaller pops first) and Meta is opaque packet metadata.
// The paper uses 16-bit ranks and 32-bit metadata; the software model is
// width-agnostic.
type Element struct {
	Value uint64
	Meta  uint64
}

// slot is one of the M element positions inside a node. count is the
// number of elements in the sub-tree rooted at this slot (including the
// slot itself); count == 0 means the slot is empty. born is the low 32
// bits of the logical clock (pushes+pops) at insertion, used by the
// sojourn probe; it rides in the padding after count, keeping the slot
// at 24 bytes.
type slot struct {
	val   uint64
	meta  uint64
	count uint32
	born  uint32
}

// Tree is an order-M, L-level BMW sorting tree.
//
// Nodes are stored in a flat array in breadth-first order: node 0 is the
// root and node n's k-th child (0-based) is node n*M+k+1, which mirrors
// the SRAM addressing rule of Section 5.1 of the paper.
//
// A Tree is intentionally confined to a single goroutine: as the golden
// model for single-issue-port hardware it carries no locks on its hot
// path. Concurrent callers go through internal/engine, where only the
// holder of a shard's execution lock touches that shard's tree.
type Tree struct {
	m, l     int
	nodes    []slot // len = numNodes*m; node n occupies [n*m, n*m+m)
	numNodes int
	size     int
	capacity int

	pushes, pops uint64
	maxSize      int

	// sojourn, when instrumented, observes the enqueue-to-dequeue
	// latency of every popped element in logical clock ticks (one tick
	// per push or pop). Nil when uninstrumented; Observe is nil-safe.
	sojourn *obs.QuantileHistogram
}

// clock returns the logical clock: one tick per completed operation.
func (t *Tree) clock() uint32 { return uint32(t.pushes + t.pops) }

// Common errors returned by priority-queue implementations in this module.
var (
	ErrFull  = errors.New("bmw: priority queue is full")
	ErrEmpty = errors.New("bmw: priority queue is empty")
)

// MinOrder is the smallest supported tree order. An order-1 tree would
// degenerate into a linked list and is rejected.
const MinOrder = 2

// Capacity returns the number of elements supported by an order-m tree
// with l levels: m(m^l-1)/(m-1). It panics if the parameters are invalid
// or the capacity overflows int.
func Capacity(m, l int) int {
	if m < MinOrder || l < 1 {
		panic(fmt.Sprintf("core: invalid tree shape m=%d l=%d", m, l))
	}
	n := NumNodes(m, l)
	return n * m
}

// NumNodes returns the number of nodes of an order-m tree with l levels:
// (m^l-1)/(m-1).
func NumNodes(m, l int) int {
	if m < MinOrder || l < 1 {
		panic(fmt.Sprintf("core: invalid tree shape m=%d l=%d", m, l))
	}
	n := 0
	p := 1
	for i := 0; i < l; i++ {
		n += p
		const maxInt = int(^uint(0) >> 1)
		if p > maxInt/m {
			panic(fmt.Sprintf("core: tree shape m=%d l=%d overflows", m, l))
		}
		p *= m
	}
	return n
}

// New creates an empty order-m BMW-Tree with l levels. It panics if
// m < 2 or l < 1 (matching the constraints of the hardware designs,
// which require at least a root node and a branching factor of two).
func New(m, l int) *Tree {
	n := NumNodes(m, l)
	return &Tree{
		m:        m,
		l:        l,
		nodes:    make([]slot, n*m),
		numNodes: n,
		capacity: n * m,
	}
}

// Order returns M, the number of elements (and children) per node.
func (t *Tree) Order() int { return t.m }

// Levels returns L, the number of levels of the tree.
func (t *Tree) Levels() int { return t.l }

// Len returns the number of elements currently stored.
func (t *Tree) Len() int { return t.size }

// Cap returns the maximum number of elements the tree can hold.
func (t *Tree) Cap() int { return t.capacity }

// AlmostFull reports whether the tree cannot accept a new push. In the
// hardware this is the almost_full signal computed by the CALC module
// from the total element count, which is the sum of the root counters.
func (t *Tree) AlmostFull() bool { return t.size >= t.capacity }

// Clone returns an independent deep copy of the tree: same shape, same
// slots, same counters and high-water mark. The clone shares no storage
// with the original and is uninstrumented (attach a sojourn probe
// separately if needed). The persistence harnesses use it to fork a
// golden reference from a live queue before draining both.
func (t *Tree) Clone() *Tree {
	c := &Tree{
		m:        t.m,
		l:        t.l,
		nodes:    append([]slot(nil), t.nodes...),
		numNodes: t.numNodes,
		size:     t.size,
		capacity: t.capacity,
		pushes:   t.pushes,
		pops:     t.pops,
		maxSize:  t.maxSize,
	}
	return c
}

// Reset empties the tree in place.
func (t *Tree) Reset() {
	for i := range t.nodes {
		t.nodes[i] = slot{}
	}
	t.size = 0
}

// Push inserts an element, following the push algorithm of Section 3.2:
// if the current node has an empty slot, the value parks in the leftmost
// empty slot; otherwise the least-loaded sub-tree (leftmost on ties) is
// chosen, its counter is incremented, the incoming value is compared with
// the sub-tree's root element, and the larger of the two is pushed down
// recursively. Returns ErrFull when the tree is at capacity.
func (t *Tree) Push(e Element) error {
	if t.size >= t.capacity {
		return ErrFull
	}
	val, meta := e.Value, e.Meta
	born := t.clock()
	n := 0
	for {
		base := n * t.m
		// Leftmost empty slot, if any.
		placed := false
		for i := 0; i < t.m; i++ {
			if t.nodes[base+i].count == 0 {
				t.nodes[base+i] = slot{val: val, meta: meta, count: 1, born: born}
				placed = true
				break
			}
		}
		if placed {
			break
		}
		// Node full: pick the least-loaded sub-tree, leftmost on ties.
		min := 0
		for i := 1; i < t.m; i++ {
			if t.nodes[base+i].count < t.nodes[base+min].count {
				min = i
			}
		}
		s := &t.nodes[base+min]
		s.count++
		// The smaller of (incoming, sub-tree root) keeps the slot; the
		// larger continues down the chosen sub-tree. The born tag
		// travels with its element.
		if val < s.val {
			val, s.val = s.val, val
			meta, s.meta = s.meta, meta
			born, s.born = s.born, born
		}
		n = n*t.m + min + 1
	}
	t.size++
	t.pushes++
	if t.size > t.maxSize {
		t.maxSize = t.size
	}
	return nil
}

// Peek returns the smallest element without removing it. The minimum is
// always present in the root node because of the heap property.
func (t *Tree) Peek() (Element, error) {
	if t.size == 0 {
		return Element{}, ErrEmpty
	}
	i := t.minSlot(0)
	s := t.nodes[i]
	return Element{Value: s.val, Meta: s.meta}, nil
}

// Pop removes and returns the smallest element, following the pop
// algorithm of Section 3.2: the smallest root element leaves, and the
// vacancy is refilled by lifting the smallest element of the sub-tree
// below it, recursively, until an element with an empty sub-tree is
// reached. Returns ErrEmpty on an empty tree.
func (t *Tree) Pop() (Element, error) {
	if t.size == 0 {
		return Element{}, ErrEmpty
	}
	n := 0
	i := t.minSlot(0) - 0*t.m // absolute slot index within flat array
	out := Element{Value: t.nodes[i].val, Meta: t.nodes[i].meta}
	t.sojourn.Observe(uint64(t.clock() - t.nodes[i].born))
	// i is the absolute flat index; convert to per-node slot index below.
	si := i - n*t.m
	for {
		s := &t.nodes[n*t.m+si]
		s.count--
		if s.count == 0 {
			// Empty sub-tree below: the slot simply becomes vacant.
			*s = slot{}
			break
		}
		// Lift the smallest element of the si-th child node.
		child := n*t.m + si + 1
		ci := t.minSlot(child)
		cs := t.nodes[ci]
		s.val, s.meta = cs.val, cs.meta
		s.born = cs.born
		n = child
		si = ci - child*t.m
	}
	t.size--
	t.pops++
	return out, nil
}

// OpStats returns the number of successful pushes and pops since
// creation (Reset does not clear them).
func (t *Tree) OpStats() (pushes, pops uint64) { return t.pushes, t.pops }

// HighWatermark returns the largest occupancy reached since creation.
func (t *Tree) HighWatermark() int { return t.maxSize }

// LevelOccupancy counts the occupied slots at a 1-based level.
func (t *Tree) LevelOccupancy(lvl int) int {
	if lvl < 1 || lvl > t.l {
		return 0
	}
	start, count := 0, 1
	for i := 1; i < lvl; i++ {
		start += count
		count *= t.m
	}
	occ := 0
	for n := start; n < start+count; n++ {
		for i := 0; i < t.m; i++ {
			if t.nodes[n*t.m+i].count != 0 {
				occ++
			}
		}
	}
	return occ
}

// minSlot returns the absolute flat index of the smallest valid element
// in node n. It panics if the node is empty; callers guarantee occupancy
// via the counters, exactly as the autonomous hardware nodes do.
func (t *Tree) minSlot(n int) int {
	base := n * t.m
	min := -1
	for i := 0; i < t.m; i++ {
		if t.nodes[base+i].count == 0 {
			continue
		}
		if min < 0 || t.nodes[base+i].val < t.nodes[base+min].val {
			min = i
		}
	}
	if min < 0 {
		panic(fmt.Sprintf("core: minSlot on empty node %d", n))
	}
	return base + min
}

// Slot reports the element and counter at node n, position i. It is used
// by the hardware simulations and the invariant checker; ok is false for
// an empty slot.
func (t *Tree) Slot(n, i int) (e Element, count uint32, ok bool) {
	s := t.nodes[n*t.m+i]
	return Element{Value: s.val, Meta: s.meta}, s.count, s.count != 0
}

// SlotState reports the value and counter at node n, position i, in the
// form required by the shared invariant checker (internal/treecheck).
func (t *Tree) SlotState(n, i int) (value uint64, count uint32, ok bool) {
	s := t.nodes[n*t.m+i]
	return s.val, s.count, s.count != 0
}

// SubtreeCounts returns the counters of the M root elements; their sum is
// the stored element count (the tree meta-information of Section 3.1).
func (t *Tree) SubtreeCounts() []uint32 {
	out := make([]uint32, t.m)
	for i := 0; i < t.m; i++ {
		out[i] = t.nodes[i].count
	}
	return out
}

// CheckInvariants verifies the structural invariants of Section 3.1 and
// returns a descriptive error on the first violation:
//
//   - counter correctness: each slot's counter equals the number of
//     elements in the sub-tree rooted at that slot (itself included);
//   - heap property: each element's value is <= every value in its
//     sub-tree;
//   - size consistency: the root counters sum to Len().
func (t *Tree) CheckInvariants() error {
	total := 0
	for i := 0; i < t.m; i++ {
		c, err := t.checkSlot(0, i)
		if err != nil {
			return err
		}
		total += c
	}
	if total != t.size {
		return fmt.Errorf("core: root counters sum to %d, size is %d", total, t.size)
	}
	return nil
}

// checkSlot validates the sub-tree rooted at slot i of node n and returns
// its element count.
func (t *Tree) checkSlot(n, i int) (int, error) {
	s := t.nodes[n*t.m+i]
	if s.count == 0 {
		// Empty slot: its sub-tree must be empty too.
		if err := t.checkEmptyBelow(n, i); err != nil {
			return 0, err
		}
		return 0, nil
	}
	count := 1
	child := n*t.m + i + 1
	if child < t.numNodes {
		for j := 0; j < t.m; j++ {
			cs := t.nodes[child*t.m+j]
			if cs.count != 0 && cs.val < s.val {
				return 0, fmt.Errorf("core: heap violation: node %d slot %d value %d > child node %d slot %d value %d",
					n, i, s.val, child, j, cs.val)
			}
			c, err := t.checkSlot(child, j)
			if err != nil {
				return 0, err
			}
			count += c
		}
	}
	if uint32(count) != s.count {
		return 0, fmt.Errorf("core: counter violation: node %d slot %d counter %d, actual sub-tree size %d",
			n, i, s.count, count)
	}
	return count, nil
}

// checkEmptyBelow verifies that no element exists below an empty slot.
func (t *Tree) checkEmptyBelow(n, i int) error {
	child := n*t.m + i + 1
	if child >= t.numNodes {
		return nil
	}
	for j := 0; j < t.m; j++ {
		if t.nodes[child*t.m+j].count != 0 {
			return fmt.Errorf("core: orphan element below empty slot: node %d slot %d", child, j)
		}
		if err := t.checkEmptyBelow(child, j); err != nil {
			return err
		}
	}
	return nil
}

// MaxImbalance returns the largest difference between sibling sub-tree
// counters over all nodes that are full (all M slots occupied). It is the
// insertion-balance metric of Section 3.3: after a push-only workload it
// is at most 1; interleaved pops can locally unbalance the tree.
func (t *Tree) MaxImbalance() uint32 {
	var worst uint32
	for n := 0; n < t.numNodes; n++ {
		base := n * t.m
		lo, hi := t.nodes[base].count, t.nodes[base].count
		full := true
		for i := 0; i < t.m; i++ {
			c := t.nodes[base+i].count
			if c == 0 {
				full = false
				break
			}
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		if full && hi-lo > worst {
			worst = hi - lo
		}
	}
	return worst
}

// Depth returns the deepest level (1-based) that holds at least one
// element, or 0 for an empty tree. Used by the balance comparisons with
// pHeap (Table 1): an unbalanced structure grows deeper for the same
// element count.
func (t *Tree) Depth() int {
	deepest := 0
	nodesAtLevel := 1
	n := 0
	for l := 1; l <= t.l; l++ {
		levelHas := false
		for k := 0; k < nodesAtLevel*t.m; k++ {
			if t.nodes[n*t.m+k].count != 0 {
				levelHas = true
				break
			}
		}
		if levelHas {
			deepest = l
		}
		n += nodesAtLevel
		nodesAtLevel *= t.m
	}
	return deepest
}
