// Package treecheck verifies the structural invariants of a BMW-Tree
// (Section 3.1 of the paper) over any implementation that can expose its
// node state: the golden software model and both cycle-accurate hardware
// simulations. Sharing one checker guarantees all implementations are
// held to identical invariants.
//
// Violations are reported as typed *Violation errors so callers — the
// simulators' tests and fuzzers, and the persistence layer's recovery
// check — can classify what kind of corruption the invariants caught
// and where.
package treecheck

import "fmt"

// State is the read-only view of a BMW-Tree's storage. Nodes are indexed
// breadth-first (node n's k-th child is n*M+k+1); slots are indexed
// 0..M-1 within a node. ok is false for an empty slot (counter zero).
type State interface {
	Order() int
	Levels() int
	Len() int
	SlotState(node, i int) (value uint64, count uint32, ok bool)
}

// Kind classifies an invariant violation.
type Kind int

// The violation classes, in the order the checker tests them.
const (
	// HeapViolation: an element is larger than a descendant.
	HeapViolation Kind = iota
	// CounterViolation: a slot's counter disagrees with its sub-tree's
	// actual element count.
	CounterViolation
	// OrphanViolation: an element exists below an empty slot.
	OrphanViolation
	// SizeViolation: the root counters do not sum to Len().
	SizeViolation
)

// String names the violation class.
func (k Kind) String() string {
	switch k {
	case HeapViolation:
		return "heap violation"
	case CounterViolation:
		return "counter violation"
	case OrphanViolation:
		return "orphan element"
	case SizeViolation:
		return "size mismatch"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Violation is one detected invariant breach. Node and Slot locate the
// offending storage (the parent slot for heap violations; -1 when not
// applicable, as for size mismatches).
type Violation struct {
	Kind Kind
	Node int
	Slot int
	Msg  string
}

// Error formats the violation; the message keeps the kind's
// conventional wording ("heap violation", "counter violation",
// "orphan") so log-scraping consumers remain stable.
func (v *Violation) Error() string { return v.Msg }

// Check validates the heap property, counter correctness, emptiness
// below vacant slots, and total-size consistency. It returns nil when
// all invariants hold and a *Violation describing the first breach
// otherwise.
func Check(s State) error {
	m := s.Order()
	nn := numNodes(m, s.Levels())
	total := 0
	for i := 0; i < m; i++ {
		c, v := checkSlot(s, nn, 0, i)
		if v != nil {
			return v
		}
		total += c
	}
	if total != s.Len() {
		return &Violation{Kind: SizeViolation, Node: -1, Slot: -1,
			Msg: fmt.Sprintf("treecheck: root counters sum to %d, Len() is %d", total, s.Len())}
	}
	return nil
}

// Occupancy counts the occupied slots visible in s. When the structure
// is quiescent it equals Len(); while pipeline waves are in flight the
// two differ by a known amount (each in-flight push carries one element
// not yet parked in a slot; each in-flight pop refill leaves one stale
// duplicate parked), which the snapshot restore validators use to
// reconcile a mid-pipeline image against its recorded size.
func Occupancy(s State) int {
	m := s.Order()
	nn := numNodes(m, s.Levels())
	occ := 0
	for n := 0; n < nn; n++ {
		for i := 0; i < m; i++ {
			if _, _, ok := s.SlotState(n, i); ok {
				occ++
			}
		}
	}
	return occ
}

// numNodes returns (m^l-1)/(m-1).
func numNodes(m, l int) int {
	n, p := 0, 1
	for i := 0; i < l; i++ {
		n += p
		p *= m
	}
	return n
}

func checkSlot(s State, nn, n, i int) (int, *Violation) {
	m := s.Order()
	val, count, ok := s.SlotState(n, i)
	child := n*m + i + 1
	if !ok {
		if count != 0 {
			return 0, &Violation{Kind: CounterViolation, Node: n, Slot: i,
				Msg: fmt.Sprintf("treecheck: counter violation: node %d slot %d empty but counter %d", n, i, count)}
		}
		if v := checkEmptyBelow(s, nn, n, i); v != nil {
			return 0, v
		}
		return 0, nil
	}
	size := 1
	if child < nn {
		for j := 0; j < m; j++ {
			cv, _, cok := s.SlotState(child, j)
			if cok && cv < val {
				return 0, &Violation{Kind: HeapViolation, Node: n, Slot: i,
					Msg: fmt.Sprintf("treecheck: heap violation: node %d slot %d value %d > descendant node %d slot %d value %d",
						n, i, val, child, j, cv)}
			}
			c, v := checkSlot(s, nn, child, j)
			if v != nil {
				return 0, v
			}
			size += c
		}
	}
	if uint32(size) != count {
		return 0, &Violation{Kind: CounterViolation, Node: n, Slot: i,
			Msg: fmt.Sprintf("treecheck: counter violation: node %d slot %d counter %d, sub-tree size %d",
				n, i, count, size)}
	}
	return size, nil
}

func checkEmptyBelow(s State, nn, n, i int) *Violation {
	m := s.Order()
	child := n*m + i + 1
	if child >= nn {
		return nil
	}
	for j := 0; j < m; j++ {
		if _, _, ok := s.SlotState(child, j); ok {
			return &Violation{Kind: OrphanViolation, Node: child, Slot: j,
				Msg: fmt.Sprintf("treecheck: orphan element below empty slot: node %d slot %d", child, j)}
		}
		if v := checkEmptyBelow(s, nn, child, j); v != nil {
			return v
		}
	}
	return nil
}
