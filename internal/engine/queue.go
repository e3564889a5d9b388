package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/pifo"
	"repro/internal/rbmw"
	"repro/internal/rpubmw"
)

// shardQueue is the synchronous queue contract the holder of a shard's
// execution lock drives.
// The software queues (core.Tree, pifo.PIFO) satisfy it directly; the
// cycle-accurate simulators are wrapped by simAdapter, which turns their
// clocked issue protocol into synchronous calls.
type shardQueue interface {
	Push(core.Element) error
	Pop() (core.Element, error)
	Peek() (core.Element, error)
	Len() int
	Cap() int
	AlmostFull() bool
}

// Kind selects the exact queue implementation each shard owns.
type Kind int

// Shard queue kinds.
const (
	// KindCore is the software BMW-Tree golden model (the default).
	KindCore Kind = iota
	// KindPIFO is the shift-register PIFO baseline.
	KindPIFO
	// KindRBMW is the cycle-accurate register-based BMW-Tree, driven
	// through a synchronous adapter.
	KindRBMW
	// KindRPUBMW is the cycle-accurate RPU-driven BMW-Tree, driven
	// through a synchronous adapter.
	KindRPUBMW
)

// String names the kind as used in persist manifests and flags.
func (k Kind) String() string {
	switch k {
	case KindCore:
		return "core"
	case KindPIFO:
		return "pifo"
	case KindRBMW:
		return "rbmw"
	case KindRPUBMW:
		return "rpubmw"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind resolves a kind name ("core", "pifo", "rbmw", "rpubmw").
func ParseKind(s string) (Kind, error) {
	switch s {
	case "core":
		return KindCore, nil
	case "pifo":
		return KindPIFO, nil
	case "rbmw":
		return KindRBMW, nil
	case "rpubmw":
		return KindRPUBMW, nil
	}
	return 0, fmt.Errorf("engine: unknown queue kind %q", s)
}

// newShardQueue builds one shard's queue for the configuration.
func newShardQueue(cfg Config) shardQueue {
	switch cfg.Kind {
	case KindPIFO:
		return pifo.New(cfg.Cap)
	case KindRBMW:
		return newSimAdapter(rbmw.New(cfg.Order, cfg.Levels))
	case KindRPUBMW:
		return newSimAdapter(rpubmw.New(cfg.Order, cfg.Levels))
	default:
		return core.New(cfg.Order, cfg.Levels)
	}
}

// cycleSim is the slice of the hardware-simulator contract the adapter
// needs: the clocked issue protocol plus quiescence for checkpoints.
type cycleSim interface {
	Tick(hw.Op) (*core.Element, error)
	Len() int
	Cap() int
	AlmostFull() bool
	PushAvailable() bool
	PopAvailable() bool
	Quiescent() bool
}

// simAdapter drives a cycle-accurate simulator synchronously: each Push
// or Pop ticks the simulator (inserting null cycles while the issue
// handshake refuses the operation) until the operation completes.
//
// To provide the Peek the strict-merge pop of the engine needs — the
// hardware designs have no architectural peek port — the adapter keeps a
// one-element head buffer with the invariant that the buffered element
// is a minimum of the whole shard: the buffer is filled by popping the
// simulator, and a pushed element smaller than the buffered head swaps
// with it before entering the simulator. Per-shard exactness is
// therefore preserved: every Pop returns a true minimum of everything
// pushed and not yet popped on this shard.
type simAdapter struct {
	sim     cycleSim
	head    core.Element
	hasHead bool
}

func newSimAdapter(s cycleSim) *simAdapter { return &simAdapter{sim: s} }

// Len counts the buffered head alongside the simulator's occupancy.
func (a *simAdapter) Len() int {
	n := a.sim.Len()
	if a.hasHead {
		n++
	}
	return n
}

// Cap is the simulator's capacity; the head buffer is not extra space
// (Push refuses at Cap), so the simulator itself never fills completely
// while the buffer is occupied.
func (a *simAdapter) Cap() int { return a.sim.Cap() }

// AlmostFull mirrors the hardware almost-full backpressure signal.
func (a *simAdapter) AlmostFull() bool { return a.Len() >= a.Cap() }

// Push inserts e, maintaining the head-buffer minimum invariant.
func (a *simAdapter) Push(e core.Element) error {
	if a.Len() >= a.Cap() {
		return core.ErrFull
	}
	if !a.hasHead {
		a.head = e
		a.hasHead = true
		return nil
	}
	if e.Value < a.head.Value {
		e, a.head = a.head, e
	}
	return a.pushSim(e)
}

// Pop returns the buffered minimum and refills the buffer from the
// simulator.
func (a *simAdapter) Pop() (core.Element, error) {
	if !a.hasHead {
		return core.Element{}, core.ErrEmpty
	}
	out := a.head
	if a.sim.Len() > 0 {
		e, err := a.popSim()
		if err != nil {
			return core.Element{}, err
		}
		a.head = e
	} else {
		a.hasHead = false
	}
	return out, nil
}

// Peek returns the buffered minimum without removing it.
func (a *simAdapter) Peek() (core.Element, error) {
	if !a.hasHead {
		return core.Element{}, core.ErrEmpty
	}
	return a.head, nil
}

// pushSim ticks until the push handshake accepts, then issues the push.
func (a *simAdapter) pushSim(e core.Element) error {
	for !a.sim.PushAvailable() {
		if _, err := a.sim.Tick(hw.NopOp()); err != nil {
			return err
		}
	}
	_, err := a.sim.Tick(hw.PushOp(e.Value, e.Meta))
	return err
}

// popSim ticks until the pop handshake accepts, then issues the pop.
func (a *simAdapter) popSim() (core.Element, error) {
	for !a.sim.PopAvailable() {
		if _, err := a.sim.Tick(hw.NopOp()); err != nil {
			return core.Element{}, err
		}
	}
	el, err := a.sim.Tick(hw.PopOp())
	if err != nil {
		return core.Element{}, err
	}
	if el == nil {
		return core.Element{}, core.ErrEmpty
	}
	return *el, nil
}

// flush pushes the buffered head back into the simulator and ticks it
// quiescent, so the simulator alone holds the shard's full state — the
// form checkpoints persist.
func (a *simAdapter) flush() error {
	if a.hasHead {
		if err := a.pushSim(a.head); err != nil {
			return err
		}
		a.hasHead = false
	}
	for !a.sim.Quiescent() {
		if _, err := a.sim.Tick(hw.NopOp()); err != nil {
			return err
		}
	}
	return nil
}

// refill restores the head-buffer invariant after a flush or a restore:
// if the simulator holds elements, its minimum moves into the buffer.
func (a *simAdapter) refill() error {
	if a.hasHead || a.sim.Len() == 0 {
		return nil
	}
	e, err := a.popSim()
	if err != nil {
		return err
	}
	a.head = e
	a.hasHead = true
	return nil
}
