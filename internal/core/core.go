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
	"math"
	"unsafe"

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

// The slots of the tree live in two parallel arrays, split by how often
// an operation touches them.
//
// hot holds what every push and pop reads at every level: node n
// occupies the 2M words hot[n*2M : n*2M+2M], its M element values
// followed by its M sub-tree counters. The array starts on a cache-line
// boundary, so an order-4 node is exactly one 64-byte line and an order-2
// node half of one — the software analogue of the paper's one SRAM word
// per node (Section 5.1). A counter is the number of elements in the
// sub-tree rooted at that slot (the slot itself included); zero marks an
// empty slot.
//
// cold holds, for slot i of node n at index n*M+i, what only moves with
// an element: its metadata and its born tag (the low 32 bits of the
// logical clock at insertion, read by the sojourn probe). A push writes
// it only where the element parks or swaps, a pop where it lifts one or
// empties a slot; no scan reads it.
type cold struct {
	meta uint64
	born uint32
}

// lineWords is the number of 64-bit words in a 64-byte cache line.
const lineWords = 8

// Tree is an order-M, L-level BMW sorting tree.
//
// Nodes are stored in a flat array in breadth-first order: node 0 is the
// root and node n's k-th child (0-based) is node n*M+k+1, which mirrors
// the SRAM addressing rule of Section 5.1 of the paper.
//
// A Tree is intentionally confined to a single goroutine: as the golden
// model for single-issue-port hardware it carries no locks on its hot
// path. Concurrent callers go through internal/engine, where only the
// holder of the engine's execution lock touches a shard's tree.
type Tree struct {
	m, l     int
	hot      []uint64 // node n: values hot[n*2M:][:M], counters hot[n*2M+M:][:M]
	cold     []cold   // slot n*M+i: meta and born tag
	numNodes int
	size     int
	capacity int

	pushes, pops uint64
	maxSize      int

	// sojourn, when instrumented, observes the enqueue-to-dequeue
	// latency of every popped element in logical clock ticks (one tick
	// per push or pop). Nil when uninstrumented; Observe is nil-safe.
	sojourn *obs.QuantileHistogram

	// touched keeps the sum of PopRun's look-ahead loads, so the
	// compiler cannot drop them.
	touched uint64
}

// clock returns the logical clock: one tick per completed operation.
func (t *Tree) clock() uint32 { return uint32(t.pushes + t.pops) }

// newHot returns the zeroed hot array of an order-m tree with n nodes,
// its first word on a cache-line boundary.
func newHot(m, n int) []uint64 {
	words := n * 2 * m
	buf := make([]uint64, words+lineWords-1)
	off := (lineWords - int(uintptr(unsafe.Pointer(&buf[0]))/8%lineWords)) % lineWords
	return buf[off : off+words : off+words]
}

// val and count address slot i of node n in the hot array.
func (t *Tree) val(n, i int) uint64   { return t.hot[2*t.m*n+i] }
func (t *Tree) count(n, i int) uint64 { return t.hot[2*t.m*n+t.m+i] }

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
		hot:      newHot(m, n),
		cold:     make([]cold, n*m),
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
	c := *t
	c.hot = newHot(t.m, t.numNodes)
	copy(c.hot, t.hot)
	c.cold = append([]cold(nil), t.cold...)
	c.sojourn = nil
	return &c
}

// Reset empties the tree in place.
func (t *Tree) Reset() {
	clear(t.hot)
	clear(t.cold)
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
	t.push(e, t.m)
	return nil
}

// push walks one push down the tree with the node scan of width w: the
// fixed-width loop for w = 4 (the paper's RPU-BMW order, where a node is
// one cache line), the runtime-M loop for any other w. Both loops take
// the same decisions, so w selects speed only; New's trees always pass
// their own order, and the layout tests pass 0 to hold the fixed-width
// loop to the runtime-M one (BenchmarkWalkWidth times the two). Order
// 2 runs the runtime-M loop: a fixed-width order-2 walk did not beat it
// reliably enough to keep (EXPERIMENTS.md E17).
//
// Each loop makes one pass over a node's counters for its leftmost
// least-loaded slot. That is also the leftmost empty slot whenever the
// node has one, because an empty slot's counter is 0, so the pass
// decides both "park here" and "descend here".
func (t *Tree) push(e Element, w int) {
	born := t.clock()
	switch w {
	case 4:
		push4(t.hot, t.cold, e.Value, e.Meta, born)
	default:
		pushM(t.hot, t.cold, t.m, e.Value, e.Meta, born)
	}
	t.size++
	t.pushes++
	if t.size > t.maxSize {
		t.maxSize = t.size
	}
}

// The walks below share one step: at slot s of the current node, either
// park the element in an empty slot, or count it into the slot's
// sub-tree and keep the smaller of (incoming, slot element) there while
// the larger, with its meta and born tag, continues into child s+1.
// Capacity checks upstream guarantee the walk reaches an empty slot.

func push4(h []uint64, c []cold, val, meta uint64, born uint32) {
	for n := 0; ; {
		nd := (*[8]uint64)(h[8*n:])
		k := least4(nd)
		s := 4*n + k
		if nd[4+k] == 0 {
			nd[k], nd[4+k] = val, 1
			c[s] = cold{meta: meta, born: born}
			return
		}
		nd[4+k]++
		if val < nd[k] {
			val, nd[k] = nd[k], val
			meta, c[s].meta = c[s].meta, meta
			born, c[s].born = c[s].born, born
		}
		n = s + 1
	}
}

func pushM(h []uint64, c []cold, m int, val, meta uint64, born uint32) {
	for n := 0; ; {
		vals, cnts := h[2*m*n:][:m], h[2*m*n+m:][:m]
		k := 0
		for i := 1; i < m; i++ {
			if cnts[i] < cnts[k] {
				k = i
			}
		}
		s := m*n + k
		if cnts[k] == 0 {
			vals[k], cnts[k] = val, 1
			c[s] = cold{meta: meta, born: born}
			return
		}
		cnts[k]++
		if val < vals[k] {
			val, vals[k] = vals[k], val
			meta, c[s].meta = c[s].meta, meta
			born, c[s].born = c[s].born, born
		}
		n = s + 1
	}
}

// least4 returns the leftmost slot holding the node's least counter.
func least4(nd *[8]uint64) int {
	a, b := 0, 2
	if nd[5] < nd[4] {
		a = 1
	}
	if nd[7] < nd[6] {
		b = 3
	}
	if nd[4+b] < nd[4+a] {
		a = b
	}
	return a & 3
}

// Peek returns the smallest element without removing it. The minimum is
// always present in the root node because of the heap property.
func (t *Tree) Peek() (Element, error) {
	if t.size == 0 {
		return Element{}, ErrEmpty
	}
	i := minM(t.hot[:t.m], t.hot[t.m:2*t.m])
	return Element{Value: t.hot[i], Meta: t.cold[i].meta}, nil
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
	e, _ := t.pop(t.m)
	return e, nil
}

// PopRun pops into out, in order, while the head ranks at most bound,
// and returns how many it popped: at most len(out), fewer when the tree
// empties or its head ranks above bound. The elements, sojourns,
// counters and slots it leaves are those of that many Pop calls.
//
// At M = 4 a run walks with a branch-free node scan (min4Run) and, before
// it scans a node, loads each of that node's children's hot and cold
// lines, so the next level's misses overlap the scan. A run of pops
// follows paths the branch predictor cannot learn; a lone pop, which
// usually retraces the push before it, keeps the branchy pop4 (DESIGN.md
// §4, EXPERIMENTS.md E24). Every other order loops the per-op walk.
func (t *Tree) PopRun(out []Element, bound uint64) int {
	n := 0
	if t.m != 4 {
		for ; n < len(out); n++ {
			if head, err := t.Peek(); err != nil || head.Value > bound {
				break
			}
			out[n], _ = t.pop(t.m)
		}
		return n
	}
	root := (*[8]uint64)(t.hot)
	var touched uint64
	for ; n < len(out) && t.size > 0; n++ {
		k := min4Run(root)
		if root[k] > bound {
			break
		}
		val, c, x := pop4Run(t.hot, t.cold, k)
		touched += x
		t.sojourn.Observe(uint64(t.clock() - c.born))
		t.size--
		t.pops++
		out[n] = Element{Value: val, Meta: c.meta}
	}
	t.touched = touched
	return n
}

// pop walks one pop down a non-empty tree with the node scan of width w
// (as for push) and returns the element with its sojourn in clock ticks.
func (t *Tree) pop(w int) (Element, uint64) {
	var val uint64
	var out cold
	switch w {
	case 4:
		val, out = pop4(t.hot, t.cold)
	default:
		val, out = popM(t.hot, t.cold, t.m)
	}
	sojourn := uint64(t.clock() - out.born)
	t.sojourn.Observe(sojourn)
	t.size--
	t.pops++
	return Element{Value: val, Meta: out.meta}, sojourn
}

// The pop walks share one step: slot s of the current node has lost its
// element; uncount it, and either leave it empty (nothing below) or lift
// the least element of child node s+1 into it and repeat there. An
// emptied slot is zeroed whole, so snapshots of equal trees are equal.

func pop4(h []uint64, c []cold) (uint64, cold) {
	nd := (*[8]uint64)(h)
	k := min4(nd)
	val, out := nd[k], c[k]
	for n := 0; ; {
		s := 4*n + k
		nd[4+k]--
		if nd[4+k] == 0 {
			nd[k], c[s] = 0, cold{}
			return val, out
		}
		cd := (*[8]uint64)(h[8*(s+1):])
		j := min4(cd)
		nd[k], c[s] = cd[j], c[4*(s+1)+j]
		n, k, nd = s+1, j, cd
	}
}

func popM(h []uint64, c []cold, m int) (uint64, cold) {
	vals, cnts := h[:m], h[m:2*m]
	k := minM(vals, cnts)
	val, out := vals[k], c[k]
	for n := 0; ; {
		s := m*n + k
		cnts[k]--
		if cnts[k] == 0 {
			vals[k], c[s] = 0, cold{}
			return val, out
		}
		cv, cc := h[2*m*(s+1):][:m], h[2*m*(s+1)+m:][:m]
		j := minM(cv, cc)
		vals[k], c[s] = cv[j], c[m*(s+1)+j]
		n, k, vals, cnts = s+1, j, cv, cc
	}
}

// pop4Run is pop4 for a pop of a run, starting at root slot k. It scans
// each node with min4Run, and before it does, it loads one word of each
// of that node's children's hot and cold lines (adjacent in BFS order),
// summed into the returned value so the loads stay.
func pop4Run(h []uint64, c []cold, k int) (uint64, cold, uint64) {
	nd := (*[8]uint64)(h)
	val, out := nd[k], c[k]
	var touched uint64
	for n := 0; ; {
		s := 4*n + k
		nd[4+k]--
		if nd[4+k] == 0 {
			nd[k], c[s] = 0, cold{}
			return val, out, touched
		}
		// Node s+1's children are the four adjacent nodes from g.
		if g := 4*(s+1) + 1; 8*g+32 <= len(h) {
			gh, gc := (*[32]uint64)(h[8*g:]), (*[16]cold)(c[4*g:])
			touched += gh[0] + gh[8] + gh[16] + gh[24] + gc[0].meta + gc[4].meta + gc[8].meta + gc[12].meta
		}
		cd := (*[8]uint64)(h[8*(s+1):])
		j := min4Run(cd)
		nd[k], c[s] = cd[j], c[4*(s+1)+j]
		n, k, nd = s+1, j, cd
	}
}

// min4Run is min4 as a fixed comparator tree: an empty slot is keyed
// MaxUint64, and the two pairs and then their winners are compared, the
// left side winning ties. Only when the least key is MaxUint64, where an
// empty slot and a stored MaxUint64 cannot be told apart, does it fall
// back to min4.
func min4Run(nd *[8]uint64) int {
	k0 := nd[0] | (occupied(nd[4]) - 1)
	k1 := nd[1] | (occupied(nd[5]) - 1)
	k2 := nd[2] | (occupied(nd[6]) - 1)
	k3 := nd[3] | (occupied(nd[7]) - 1)
	a, ka := 0, k0
	if k1 < k0 {
		a, ka = 1, k1
	}
	b, kb := 2, k2
	if k3 < k2 {
		b, kb = 3, k3
	}
	if kb < ka {
		a, ka = b, kb
	}
	if ka == math.MaxUint64 {
		return min4(nd)
	}
	return a
}

// occupied is 1 for a non-zero counter and 0 for zero, without a branch.
// Counters never reach 2^63.
func occupied(cnt uint64) uint64 { return (cnt | -cnt) >> 63 }

// min4 and minM return the leftmost occupied slot holding the least
// value of a non-empty node.
func min4(nd *[8]uint64) int {
	a, b := 0, 2
	if nd[4] == 0 || nd[5] != 0 && nd[1] < nd[0] {
		a = 1
	}
	if nd[6] == 0 || nd[7] != 0 && nd[3] < nd[2] {
		b = 3
	}
	if nd[4+a] == 0 || nd[4+b] != 0 && nd[b] < nd[a] {
		a = b
	}
	return a & 3
}

func minM(vals, cnts []uint64) int {
	k := 0
	for i := 1; i < len(cnts); i++ {
		if cnts[k] == 0 || cnts[i] != 0 && vals[i] < vals[k] {
			k = i
		}
	}
	return k
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
			if t.count(n, i) != 0 {
				occ++
			}
		}
	}
	return occ
}

// Slot reports the element and counter at node n, position i. It is used
// by the hardware simulations and the invariant checker; ok is false for
// an empty slot.
func (t *Tree) Slot(n, i int) (e Element, count uint32, ok bool) {
	c := t.count(n, i)
	return Element{Value: t.val(n, i), Meta: t.cold[n*t.m+i].meta}, uint32(c), c != 0
}

// SlotState reports the value and counter at node n, position i, in the
// form required by the shared invariant checker (internal/treecheck).
func (t *Tree) SlotState(n, i int) (value uint64, count uint32, ok bool) {
	c := t.count(n, i)
	return t.val(n, i), uint32(c), c != 0
}

// SubtreeCounts returns the counters of the M root elements; their sum is
// the stored element count (the tree meta-information of Section 3.1).
func (t *Tree) SubtreeCounts() []uint32 {
	out := make([]uint32, t.m)
	for i := range out {
		out[i] = uint32(t.count(0, i))
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
	sc := t.count(n, i)
	if sc == 0 {
		// Empty slot: its sub-tree must be empty too.
		if err := t.checkEmptyBelow(n, i); err != nil {
			return 0, err
		}
		return 0, nil
	}
	sv := t.val(n, i)
	count := 1
	child := n*t.m + i + 1
	if child < t.numNodes {
		for j := 0; j < t.m; j++ {
			if cv := t.val(child, j); t.count(child, j) != 0 && cv < sv {
				return 0, fmt.Errorf("core: heap violation: node %d slot %d value %d > child node %d slot %d value %d",
					n, i, sv, child, j, cv)
			}
			c, err := t.checkSlot(child, j)
			if err != nil {
				return 0, err
			}
			count += c
		}
	}
	if uint64(count) != sc {
		return 0, fmt.Errorf("core: counter violation: node %d slot %d counter %d, actual sub-tree size %d",
			n, i, sc, count)
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
		if t.count(child, j) != 0 {
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
	var worst uint64
	for n := 0; n < t.numNodes; n++ {
		lo, hi := t.count(n, 0), t.count(n, 0)
		full := true
		for i := 0; i < t.m; i++ {
			c := t.count(n, i)
			if c == 0 {
				full = false
				break
			}
			lo, hi = min(lo, c), max(hi, c)
		}
		if full && hi-lo > worst {
			worst = hi - lo
		}
	}
	return uint32(worst)
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
			if t.count(n+k/t.m, k%t.m) != 0 {
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
