// Crash-safe persistence facade: the checkpoint/restore and integrity
// audit surface of internal/persist re-exported at the package-bmw
// surface, as the one-call conveniences Checkpoint, Restore and
// VerifyPersistDir.
//
// The software BMW-Tree (NewBMWTree) — the queue the engine serves —
// implements Checkpointable. See DESIGN.md section 5d for the on-disk
// formats and the recovery state machine, and cmd/bmwcrash for the
// kill-point crash harness that validates them.
package bmw

import "repro/internal/persist"

// Checkpointable is the surface a queue exposes to the persistence
// layer: versioned snapshot encode/restore, WAL replay, and a
// post-recovery invariant check.
type Checkpointable = persist.Checkpointable

// RecoveryReport describes what a recovery found and did: the restored
// snapshot, skipped (invalid) snapshots, replayed WAL suffix, and any
// torn tail truncated.
type RecoveryReport = persist.RecoveryReport

// ErrTornRecord is the sentinel wrapped by WAL-reader errors for a
// partial or corrupt trailing record; test with errors.Is. A torn tail
// is recoverable by construction — everything before it is intact.
var ErrTornRecord = persist.ErrTornRecord

// Checkpoint writes a one-shot durable snapshot of a live queue to dir,
// superseding any history already there.
func Checkpoint(dir string, q Checkpointable) error {
	m, err := persist.Attach(dir, q, persist.Options{})
	if err != nil {
		return err
	}
	if err := m.Checkpoint(); err != nil {
		m.Close()
		return err
	}
	return m.Close()
}

// PersistFinding is one localised integrity fault: file, corruption
// class, and — for WAL damage — the affected LSN range, or — for
// snapshot rot — the failing chunk indices.
type PersistFinding = persist.Finding

// PersistDirReport is the outcome of one VerifyPersistDir audit.
type PersistDirReport = persist.DirReport

// VerifyPersistDir audits one persistence directory read-only:
// manifest self-checksum, WAL framing plus hash chain against the
// sealed head, and snapshot Merkle verification with per-chunk
// localisation. Nothing is modified.
func VerifyPersistDir(dir string) *PersistDirReport {
	return persist.VerifyDir(nil, dir)
}

// Restore loads the newest valid checkpoint in dir into q (a freshly
// constructed queue of the same configuration), replays any WAL suffix,
// and verifies the queue's structural invariants before returning.
func Restore(dir string, q Checkpointable) (*RecoveryReport, error) {
	m, rep, err := persist.Open(dir, q, persist.Options{})
	if err != nil {
		return nil, err
	}
	return rep, m.Close()
}
