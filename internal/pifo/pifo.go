// Package pifo models the original PIFO flow scheduler of Sivaraman et
// al., "Programmable packet scheduling at line rate" (SIGCOMM 2016) —
// the baseline the BMW-Tree paper compares against.
//
// The original design is a sorted shift register: every entry sits in a
// flip-flop block; a pushed element is broadcast to all blocks, each
// block compares its rank against the incoming one in parallel, and the
// insertion point shifts the tail of the array down — all within a
// single clock cycle. A pop removes the head (smallest rank) and shifts
// everything up, also in one cycle.
//
// Both operations complete in one cycle, so the scheduling rate equals
// the clock frequency. The price is scalability: the broadcast bus must
// load every block (the "bus loading problem") and the parallel
// priority-encoder depth grows with the number of entries, so the
// maximum frequency collapses as capacity grows — 40 MHz at 4096
// entries on the paper's FPGA versus 384 MHz for the 2-order R-BMW of
// the same capacity (Section 6.1). The frequency model lives in
// internal/fpga; this package provides the functional and cycle
// behaviour.
//
// Ties are FIFO: a new element is inserted after existing entries of
// equal rank, matching the shift-register insert-before-first-larger
// hardware rule.
//
// A PIFO is intentionally confined to a single goroutine: it models
// hardware with one issue port per cycle and carries no locks on its
// hot path. Concurrent callers go through internal/engine, where only
// the holder of the engine's execution lock touches a shard's queue.
package pifo

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/obs"
)

// PIFO is a sorted shift-register priority queue with fixed capacity.
type PIFO struct {
	entries []core.Element
	cap     int
	cycle   uint64

	pushes, pops uint64
	maxLen       int

	// sojourn, when instrumented, observes enqueue-to-dequeue latency
	// in logical clock ticks (one tick per push or pop); born shadows
	// entries with each element's insertion tick. Both stay nil on an
	// uninstrumented queue, so the bare path never touches them.
	sojourn *obs.QuantileHistogram
	born    []uint32
}

// clock returns the logical clock: one tick per completed operation.
func (p *PIFO) clock() uint32 { return uint32(p.pushes + p.pops) }

// New creates an empty PIFO with the given capacity (number of shift
// register blocks).
func New(capacity int) *PIFO {
	if capacity < 1 {
		panic("pifo: capacity must be positive")
	}
	pre := capacity
	if pre > 4096 {
		pre = 4096 // grow lazily for very large capacities
	}
	return &PIFO{entries: make([]core.Element, 0, pre), cap: capacity}
}

// Len returns the number of stored elements; Cap the capacity.
func (p *PIFO) Len() int { return len(p.entries) }

// Cap returns the number of shift-register blocks.
func (p *PIFO) Cap() int { return p.cap }

// Cycle returns the elapsed clock cycles (one per operation, including
// nops issued through Tick).
func (p *PIFO) Cycle() uint64 { return p.cycle }

// AlmostFull reports whether a push would overflow.
func (p *PIFO) AlmostFull() bool { return len(p.entries) >= p.cap }

// Stats returns the operation counts.
func (p *PIFO) Stats() (pushes, pops uint64) { return p.pushes, p.pops }

// Push inserts an element in rank order (after ties). It costs one
// cycle in hardware. Returns ErrFull at capacity.
func (p *PIFO) Push(e core.Element) error {
	if len(p.entries) >= p.cap {
		return core.ErrFull
	}
	// Parallel compare in hardware; binary search in simulation. The
	// insertion point is after the last entry with rank <= e.Value.
	lo, hi := 0, len(p.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.entries[mid].Value <= e.Value {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	p.entries = append(p.entries, core.Element{})
	copy(p.entries[lo+1:], p.entries[lo:])
	p.entries[lo] = e
	if p.sojourn != nil {
		p.born = append(p.born, 0)
		copy(p.born[lo+1:], p.born[lo:])
		p.born[lo] = p.clock()
	}
	p.pushes++
	if len(p.entries) > p.maxLen {
		p.maxLen = len(p.entries)
	}
	return nil
}

// HighWatermark returns the largest occupancy reached since creation.
func (p *PIFO) HighWatermark() int { return p.maxLen }

// Pop removes and returns the head (smallest rank; FIFO among ties).
func (p *PIFO) Pop() (core.Element, error) {
	if len(p.entries) == 0 {
		return core.Element{}, core.ErrEmpty
	}
	e := p.entries[0]
	copy(p.entries, p.entries[1:])
	p.entries = p.entries[:len(p.entries)-1]
	if p.sojourn != nil {
		p.sojourn.Observe(uint64(p.clock() - p.born[0]))
		copy(p.born, p.born[1:])
		p.born = p.born[:len(p.born)-1]
	}
	p.pops++
	return e, nil
}

// Peek returns the head without removing it.
func (p *PIFO) Peek() (core.Element, error) {
	if len(p.entries) == 0 {
		return core.Element{}, core.ErrEmpty
	}
	return p.entries[0], nil
}

// Tick presents one cycle's external signal, mirroring the Tick
// interface of the BMW simulators. Every operation — push, pop or nop —
// costs exactly one cycle; there are no availability restrictions
// (PIFO "finishes an operation in one cycle", Section 6.1, which is
// precisely what limits its clock frequency).
func (p *PIFO) Tick(op hw.Op) (*core.Element, error) {
	switch op.Kind {
	case hw.Push:
		if err := p.Push(core.Element{Value: op.Value, Meta: op.Meta}); err != nil {
			return nil, err
		}
		p.cycle++
		return nil, nil
	case hw.Pop:
		e, err := p.Pop()
		if err != nil {
			return nil, err
		}
		p.cycle++
		return &e, nil
	default:
		p.cycle++
		return nil, nil
	}
}

// TickPushPop performs an enqueue and a dequeue in the same clock
// cycle — the original PIFO block supports one push and one pop
// concurrently per cycle (Sivaraman et al., Section 4 of their paper),
// which is why the paper's PIFO schedules packets at its full clock
// rate (40 Mpps at 40 MHz).
func (p *PIFO) TickPushPop(op hw.Op) (*core.Element, error) {
	if op.Kind != hw.Push {
		return nil, fmt.Errorf("pifo: TickPushPop requires a push operand, got %v", op.Kind)
	}
	if err := p.Push(core.Element{Value: op.Value, Meta: op.Meta}); err != nil {
		return nil, err
	}
	e, err := p.Pop()
	if err != nil {
		return nil, err
	}
	p.cycle++
	return &e, nil
}

// Reset empties the queue.
func (p *PIFO) Reset() {
	p.entries = p.entries[:0]
	p.born = p.born[:0]
}
