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

// SnapshotSize is the payload length: the header, then every slot at
// its fixed offset. It depends on the shape only.
func (t *Tree) SnapshotSize() int { return snapHeaderBytes + len(t.cold)*snapSlotBytes }

// putSnapHeader encodes the header into h.
func (t *Tree) putSnapHeader(h []byte) {
	le := binary.LittleEndian
	le.PutUint32(h[0:], uint32(t.m))
	le.PutUint32(h[4:], uint32(t.l))
	le.PutUint64(h[8:], uint64(t.size))
	le.PutUint64(h[16:], t.pushes)
	le.PutUint64(h[24:], t.pops)
	le.PutUint64(h[32:], uint64(t.maxSize))
	le.PutUint32(h[40:], uint32(len(t.cold)))
}

// putSlots encodes slots i, i+1, ... into dst, as many whole slots as
// fit, and returns how many it encoded.
func (t *Tree) putSlots(i int, dst []byte) int {
	le := binary.LittleEndian
	m, k := t.m, i%t.m
	hot := t.hot[2*m*(i/m):]
	cold := t.cold[i : i+len(dst)/snapSlotBytes]
	for c := range cold {
		s := dst[c*snapSlotBytes : (c+1)*snapSlotBytes]
		le.PutUint64(s[0:], hot[k])
		le.PutUint64(s[8:], cold[c].meta)
		le.PutUint32(s[16:], uint32(hot[m+k]))
		le.PutUint32(s[20:], cold[c].born)
		if k++; k == m {
			k, hot = 0, hot[2*m:]
		}
	}
	return len(cold)
}

// getSlots decodes whole slots from b into slots i, i+1, ... and
// returns how many it decoded.
func (t *Tree) getSlots(i int, b []byte) int {
	le := binary.LittleEndian
	m, k := t.m, i%t.m
	hot := t.hot[2*m*(i/m):]
	cold := t.cold[i : i+len(b)/snapSlotBytes]
	for c := range cold {
		s := b[c*snapSlotBytes : (c+1)*snapSlotBytes]
		hot[k] = le.Uint64(s[0:])
		cold[c].meta = le.Uint64(s[8:])
		hot[m+k] = uint64(le.Uint32(s[16:]))
		cold[c].born = le.Uint32(s[20:])
		if k++; k == m {
			k, hot = 0, hot[2*m:]
		}
	}
	return len(cold)
}

// EncodeSnapshot writes payload bytes [off, off+len(dst)) into dst. A
// slot cut by either end of the range goes through a one-slot buffer;
// every other slot encodes in place.
func (t *Tree) EncodeSnapshot(off int, dst []byte) {
	if off < snapHeaderBytes && len(dst) > 0 {
		var h [snapHeaderBytes]byte
		t.putSnapHeader(h[:])
		n := copy(dst, h[off:])
		off, dst = off+n, dst[n:]
	}
	if len(dst) == 0 {
		return
	}
	i, j := (off-snapHeaderBytes)/snapSlotBytes, (off-snapHeaderBytes)%snapSlotBytes
	var s [snapSlotBytes]byte
	if j > 0 {
		t.putSlots(i, s[:])
		n := copy(dst, s[j:])
		dst, i = dst[n:], i+1
	}
	n := t.putSlots(i, dst)
	if dst = dst[n*snapSlotBytes:]; len(dst) > 0 {
		t.putSlots(i+n, s[:])
		copy(dst, s[:])
	}
}

// RestoreSnapshot loads payload bytes [off, off+len(b)) into the
// receiver, which must have the same shape as the tree that wrote it.
// The first range holds the whole header, which is fully validated —
// version, shape, size, payload length — before any receiver state
// changes; after that no slot can fail to decode, so slots decode
// straight from each range. A slot cut by a range boundary is
// read-modify-written, its bytes landing as they arrive.
func (t *Tree) RestoreSnapshot(version uint32, size, off int, b []byte) error {
	if off+len(b) > size {
		return fmt.Errorf("core: snapshot bytes [%d,%d) past the %d-byte payload", off, off+len(b), size)
	}
	if off == 0 {
		if err := t.restoreHeader(version, size, b); err != nil {
			return err
		}
		off, b = snapHeaderBytes, b[snapHeaderBytes:]
	}
	if len(b) == 0 {
		return nil
	}
	i, j := (off-snapHeaderBytes)/snapSlotBytes, (off-snapHeaderBytes)%snapSlotBytes
	var s [snapSlotBytes]byte
	if j > 0 {
		t.putSlots(i, s[:])
		n := copy(s[j:], b)
		t.getSlots(i, s[:])
		if b = b[n:]; len(b) == 0 {
			return nil
		}
		i++
	}
	n := t.getSlots(i, b)
	if b = b[n*snapSlotBytes:]; len(b) > 0 {
		t.putSlots(i+n, s[:])
		copy(s[:], b)
		t.getSlots(i+n, s[:])
	}
	return nil
}

// restoreHeader validates the payload header at the start of b against
// the receiver and the payload length, then loads its counters.
func (t *Tree) restoreHeader(version uint32, size int, b []byte) error {
	if version != coreSnapVersion {
		return fmt.Errorf("core: unsupported snapshot version %d (have %d)", version, coreSnapVersion)
	}
	if size < snapHeaderBytes {
		return fmt.Errorf("core: snapshot payload of %d bytes is shorter than its %d-byte header", size, snapHeaderBytes)
	}
	if len(b) < snapHeaderBytes {
		return fmt.Errorf("core: snapshot header cut after %d of %d bytes", len(b), snapHeaderBytes)
	}
	le := binary.LittleEndian
	m, l := int(le.Uint32(b[0:])), int(le.Uint32(b[4:]))
	n := int(le.Uint32(b[40:]))
	if m != t.m || l != t.l || n != len(t.cold) {
		return fmt.Errorf("core: snapshot shape m=%d l=%d slots=%d does not match tree m=%d l=%d slots=%d",
			m, l, n, t.m, t.l, len(t.cold))
	}
	sz := le.Uint64(b[8:])
	if sz > uint64(t.capacity) {
		return fmt.Errorf("core: snapshot size %d out of range [0,%d]", sz, t.capacity)
	}
	if got, want := size-snapHeaderBytes, n*snapSlotBytes; got != want {
		return fmt.Errorf("core: snapshot has %d slot bytes, want %d for %d slots", got, want, n)
	}
	t.size = int(sz)
	t.pushes, t.pops = le.Uint64(b[16:]), le.Uint64(b[24:])
	t.maxSize = int(le.Uint64(b[32:]))
	return nil
}

// ResetSnapshot empties the tree and zeroes its counters: the state of
// a freshly constructed tree.
func (t *Tree) ResetSnapshot() {
	t.Reset()
	t.pushes, t.pops, t.maxSize = 0, 0, 0
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
