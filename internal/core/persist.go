// Snapshot/replay codec: the golden model as a persist.Checkpointable.
//
// The payload is the complete functional state — shape, occupancy,
// operation counters (which define the logical clock and therefore the
// sojourn born-tags), the high-water mark, and every slot including its
// born tag — so a restored tree is behaviourally indistinguishable from
// the one that was snapshotted.

package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/hw"
	"repro/internal/persist"
)

// coreSnapVersion is the current snapshot codec version.
const coreSnapVersion = 1

// snapHeaderBytes is the encoded size of the header: m (U32), l (U32),
// size, pushes, pops, high-water mark (U64 each), slot count (U32).
const snapHeaderBytes = 4 + 4 + 8 + 8 + 8 + 8 + 4

// snapSlotBytes is the encoded size of one slot, as EncodeSnapshot
// writes it: val (U64), meta (U64), count (U32), born (U32).
const snapSlotBytes = 8 + 8 + 4 + 4

var _ persist.Checkpointable = (*Tree)(nil)

// SnapshotKind identifies the golden model's snapshots.
func (t *Tree) SnapshotKind() string { return "core" }

// SnapshotVersion returns the codec version EncodeSnapshot writes.
func (t *Tree) SnapshotVersion() uint32 { return coreSnapVersion }

// EncodeSnapshot serialises the complete tree state into one buffer
// allocated at its exact length: the header, then every slot at its
// fixed offset.
func (t *Tree) EncodeSnapshot() ([]byte, error) {
	b := make([]byte, snapHeaderBytes+len(t.cold)*snapSlotBytes)
	le := binary.LittleEndian
	le.PutUint32(b[0:], uint32(t.m))
	le.PutUint32(b[4:], uint32(t.l))
	le.PutUint64(b[8:], uint64(t.size))
	le.PutUint64(b[16:], t.pushes)
	le.PutUint64(b[24:], t.pops)
	le.PutUint64(b[32:], uint64(t.maxSize))
	le.PutUint32(b[40:], uint32(len(t.cold)))
	p := b[snapHeaderBytes:]
	for n := 0; n < t.numNodes; n++ {
		node := t.hot[2*t.m*n : 2*t.m*(n+1)]
		for i, c := range t.cold[n*t.m : (n+1)*t.m] {
			s := p[:snapSlotBytes]
			le.PutUint64(s[0:], node[i])
			le.PutUint64(s[8:], c.meta)
			le.PutUint32(s[16:], uint32(node[t.m+i]))
			le.PutUint32(s[20:], c.born)
			p = p[snapSlotBytes:]
		}
	}
	return b, nil
}

// RestoreSnapshot loads a payload into the receiver, which must have
// the same shape as the tree that wrote it. The payload is fully
// validated before any receiver state changes: once the header and the
// payload length check out, no slot can fail to decode, so the slots
// decode straight from the payload's tail into the receiver.
func (t *Tree) RestoreSnapshot(version uint32, payload []byte) error {
	if version != coreSnapVersion {
		return fmt.Errorf("core: unsupported snapshot version %d (have %d)", version, coreSnapVersion)
	}
	d := persist.NewDec(payload)
	m, l := int(d.U32()), int(d.U32())
	size := int(d.U64())
	pushes, pops := d.U64(), d.U64()
	maxSize := int(d.U64())
	n := d.Len(1 << 30)
	if err := d.Err(); err != nil {
		return err
	}
	if m != t.m || l != t.l || n != len(t.cold) {
		return fmt.Errorf("core: snapshot shape m=%d l=%d slots=%d does not match tree m=%d l=%d slots=%d",
			m, l, n, t.m, t.l, len(t.cold))
	}
	if size < 0 || size > t.capacity {
		return fmt.Errorf("core: snapshot size %d out of range [0,%d]", size, t.capacity)
	}
	if got, want := d.Remaining(), n*snapSlotBytes; got != want {
		return fmt.Errorf("core: snapshot has %d slot bytes, want %d for %d slots", got, want, n)
	}
	p := payload[len(payload)-d.Remaining():]
	le := binary.LittleEndian
	for n := 0; n < t.numNodes; n++ {
		node := t.hot[2*m*n : 2*m*(n+1)]
		cold := t.cold[n*m : (n+1)*m]
		for i := range cold {
			s := p[:snapSlotBytes]
			node[i] = le.Uint64(s[0:])
			cold[i].meta = le.Uint64(s[8:])
			node[m+i] = uint64(le.Uint32(s[16:]))
			cold[i].born = le.Uint32(s[20:])
			p = p[snapSlotBytes:]
		}
	}
	t.size = size
	t.pushes, t.pops = pushes, pops
	t.maxSize = maxSize
	return nil
}

// Replay applies one logged operation. The golden model's clock is the
// operation count itself, so no cycle alignment is needed; a pop is
// audited against the element the log recorded.
func (t *Tree) Replay(op persist.Op) error {
	switch op.Kind {
	case hw.Push:
		return t.Push(Element{Value: op.Value, Meta: op.Meta})
	case hw.Pop:
		e, err := t.Pop()
		if err != nil {
			return err
		}
		if e.Value != op.Value || e.Meta != op.Meta {
			return fmt.Errorf("core: replay divergence: popped (%d,%d), log recorded (%d,%d)",
				e.Value, e.Meta, op.Value, op.Meta)
		}
		return nil
	default:
		return fmt.Errorf("core: replay of invalid op kind %v", op.Kind)
	}
}

// VerifyRecovered runs the structural invariant checker.
func (t *Tree) VerifyRecovered() error { return t.CheckInvariants() }
