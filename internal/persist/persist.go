// Package persist makes the served priority queue (the software
// BMW-Tree of internal/core) durable: a CRC32C-framed write-ahead log of push/pop operations
// (wal.go), versioned self-checksummed snapshots (snapshot.go), and a
// Manager that composes the two into checkpoint/recover (manager.go).
//
// The durability contract is the classic WAL discipline:
//
//   - every accepted operation is appended to the log before (or
//     together with) the commit policy's sync point;
//   - a checkpoint first makes the log durable, then writes a snapshot
//     stamped with the log sequence number (LSN) it covers;
//   - recovery loads the newest snapshot that validates (checksum,
//     version, shape, LSN within the log), replays the log suffix, and
//     runs the queue's own invariant checker before declaring it live.
//
// Torn tails — a partial final record left by a crash mid-write — are
// expected, not exceptional: the reader stops at the last valid record,
// the tail is truncated and counted, and recovery proceeds. A torn or
// corrupt *snapshot* fails its checksum and recovery falls back to the
// previous one.
//
// Replay determinism: the tree is a deterministic function of its op
// sequence, so replaying the identical ops in the identical order
// reproduces the identical slots — and therefore a pop order
// bit-identical to the uninterrupted run, metadata of tied ranks
// included.
//
// The package depends only on the standard library, internal/hw (the
// operation vocabulary) and internal/obs (nil-safe counters); the queue
// packages implement Checkpointable and import persist, never the
// reverse.
package persist

import (
	"errors"
	"fmt"

	"repro/internal/hw"
)

// Op is one logged queue operation. Cycle is the clock value at which
// the operation completed (the tree's logical push+pop tick). For a
// pop, Value and Meta record the element that left the queue, so replay
// can audit that the recovered machine pops the identical element.
type Op struct {
	Kind  hw.OpKind
	Cycle uint64
	Value uint64
	Meta  uint64
}

// Checkpointable is the surface a queue exposes to the persistence
// layer. The software BMW-Tree (core.Tree) implements it.
type Checkpointable interface {
	// SnapshotKind names the implementation ("core"); a snapshot
	// restores only into the kind that wrote it.
	SnapshotKind() string
	// SnapshotVersion is the codec version EncodeSnapshot writes;
	// RestoreSnapshot rejects versions it does not understand.
	SnapshotVersion() uint32
	// SnapshotSize is the length of the payload EncodeSnapshot writes
	// for the current state.
	SnapshotSize() int
	// EncodeSnapshot writes payload bytes [off, off+len(dst)) into dst.
	// The payload is the complete queue state — storage, counters,
	// clocks — such that restoring it into a same-configured fresh
	// instance reproduces behaviour bit-for-bit. A checkpoint calls it
	// with contiguous ranges from offset 0 to SnapshotSize, one stream
	// block at a time, and does not mutate the queue in between.
	EncodeSnapshot(off int, dst []byte)
	// RestoreSnapshot loads payload bytes [off, off+len(b)) of a
	// size-byte payload written at the given version. Recovery calls it
	// with contiguous ranges from offset 0, the first holding at least
	// min(size, SnapshotHeadBytes) bytes; for the snapshot the manifest
	// covers, each range only once its chunks matched the manifest's
	// leaves. An error ends the restore, and so does an integrity fault
	// found later in the file; recovery then calls ResetSnapshot.
	RestoreSnapshot(version uint32, size, off int, b []byte) error
	// ResetSnapshot returns the queue to the state of a freshly
	// constructed instance, discarding a partial restore.
	ResetSnapshot()
	// Replay applies one logged operation, reproducing the original
	// schedule and auditing pop results against the log.
	Replay(op Op) error
	// VerifyRecovered runs the queue's structural invariant checker
	// (treecheck for the tree); recovery refuses to declare a queue
	// live while it fails.
	VerifyRecovered() error
}

// ErrTornRecord is the sentinel for a WAL tail that ends in a partial
// or corrupt record. Concrete cases are *TornRecordError values
// wrapping it. A torn tail is recoverable by construction: everything
// before it is intact.
var ErrTornRecord = errors.New("persist: torn or corrupt WAL record")

// TornRecordError locates and describes one torn/corrupt record.
type TornRecordError struct {
	// Offset is the byte offset of the bad record — equivalently, the
	// length of the valid prefix.
	Offset int64
	// Reason describes what failed (short header, bad length, short
	// payload, checksum mismatch, invalid op kind).
	Reason string
}

// Error formats the detection.
func (e *TornRecordError) Error() string {
	return fmt.Sprintf("persist: torn WAL record at offset %d: %s", e.Offset, e.Reason)
}

// Unwrap lets errors.Is(err, ErrTornRecord) match.
func (e *TornRecordError) Unwrap() error { return ErrTornRecord }
