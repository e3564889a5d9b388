// Package hw provides the clocked-hardware primitives shared by the
// cycle-accurate pipeline simulations: the Simple Dual-Port RAM model
// used by RPU-BMW (Section 5.2.3 of the paper) and the external
// operation/issue types common to all flow-scheduler implementations.
//
// The simulations in this module advance in discrete cycles. Within a
// cycle, combinational logic runs; at the cycle boundary (the "rising
// edge") registered state commits. A read issued to an SDPRAM during
// cycle c delivers its data during cycle c+1; a write issued during
// cycle c commits at the edge but is already visible to a read of the
// same address issued in the same cycle (write-first behaviour), which
// is the property Section 5.2.3 exploits for operation hiding.
package hw

import "fmt"

// OpKind identifies an external operation presented to a flow scheduler
// in one clock cycle.
type OpKind int

// The three possible per-cycle external signals.
const (
	Nop OpKind = iota
	Push
	Pop
)

// String returns the conventional name of the operation.
func (k OpKind) String() string {
	switch k {
	case Nop:
		return "nop"
	case Push:
		return "push"
	case Pop:
		return "pop"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Valid reports whether k is one of the defined external signals.
// Decoders of persisted operation logs use it to reject kind bytes
// that no scheduler could have consumed.
func (k OpKind) Valid() bool { return k == Nop || k == Push || k == Pop }

// Op is one cycle's external signal: a push carrying an element, a pop,
// or a nop (null signal).
type Op struct {
	Kind  OpKind
	Value uint64
	Meta  uint64
}

// PushOp builds a push operation.
func PushOp(value, meta uint64) Op { return Op{Kind: Push, Value: value, Meta: meta} }

// PopOp builds a pop operation.
func PopOp() Op { return Op{Kind: Pop} }

// NopOp builds a null operation.
func NopOp() Op { return Op{} }

// SDPRAM models a Simple Dual-Port RAM with one read port and one write
// port on a single clock, parameterised by the word type T (one tree
// node per word in RPU-BMW). If a read and a write address the same word
// in the same cycle, the read returns the newly written data — the
// write-first property of Section 5.2.3.
//
// Protocol per cycle: call Read and/or Write at most once each, then
// Tick to advance the clock. Data for the read becomes available from
// Data after the Tick.
type SDPRAM[T any] struct {
	mem []T

	readPending  bool
	readAddr     int
	writePending bool
	writeAddr    int
	writeData    T

	dataValid bool
	data      T

	reads, writes, collisions uint64
}

// NewSDPRAM returns a RAM with the given number of words, all zeroed.
func NewSDPRAM[T any](words int) *SDPRAM[T] {
	return &SDPRAM[T]{mem: make([]T, words)}
}

// Words returns the RAM depth.
func (r *SDPRAM[T]) Words() int { return len(r.mem) }

// checkAddr validates a port address at issue time. Catching the
// violation here, rather than as a raw slice-index panic inside Tick,
// reports the offending port and address in the cycle that issued it.
func (r *SDPRAM[T]) checkAddr(port string, addr int) {
	if addr < 0 || addr >= len(r.mem) {
		panic(fmt.Sprintf("hw: %s address %d out of range [0,%d)", port, addr, len(r.mem)))
	}
}

// Read presents addr on the read port for the current cycle. Issuing two
// reads in one cycle is a simulation bug and panics (the hardware has a
// single read port), as is an address outside [0, Words()).
func (r *SDPRAM[T]) Read(addr int) {
	r.checkAddr("read", addr)
	if r.readPending {
		panic(fmt.Sprintf("hw: second read issued in one cycle (addr %d, pending %d)", addr, r.readAddr))
	}
	r.readPending = true
	r.readAddr = addr
	r.reads++
}

// Write presents addr/data on the write port for the current cycle.
// Issuing two writes in one cycle panics (single write port), as does
// an address outside [0, Words()).
func (r *SDPRAM[T]) Write(addr int, data T) {
	r.checkAddr("write", addr)
	if r.writePending {
		panic(fmt.Sprintf("hw: second write issued in one cycle (addr %d, pending %d)", addr, r.writeAddr))
	}
	r.writePending = true
	r.writeAddr = addr
	r.writeData = data
	r.writes++
}

// Tick advances one clock edge: the pending write commits and the
// pending read captures its data, with write-first resolution on an
// address collision.
func (r *SDPRAM[T]) Tick() {
	r.dataValid = false
	if r.readPending {
		if r.writePending && r.writeAddr == r.readAddr {
			r.data = r.writeData // read-during-write returns new data
			r.collisions++
		} else {
			r.data = r.mem[r.readAddr]
		}
		r.dataValid = true
	}
	if r.writePending {
		r.mem[r.writeAddr] = r.writeData
	}
	r.readPending = false
	r.writePending = false
}

// Data returns the word captured by the read issued in the previous
// cycle. ok is false if no read was issued.
func (r *SDPRAM[T]) Data() (data T, ok bool) {
	return r.data, r.dataValid
}

// Pending reports whether a read or write presented this cycle has not
// yet been committed by a Tick. Simulators include it in their
// quiescence checks: committed state (Peek) is only meaningful once no
// port request is outstanding.
func (r *SDPRAM[T]) Pending() bool { return r.readPending || r.writePending }

// Peek returns the committed contents of a word without using the read
// port. Test and checker helper; not part of the hardware interface.
func (r *SDPRAM[T]) Peek(addr int) T { return r.mem[addr] }

// Stats reports the port activity since construction: total reads,
// total writes, and read-during-write collisions (the operation-hiding
// events of Section 5.2.3).
func (r *SDPRAM[T]) Stats() (reads, writes, collisions uint64) {
	return r.reads, r.writes, r.collisions
}
