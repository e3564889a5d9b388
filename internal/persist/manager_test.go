package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/hw"
	"repro/internal/obs"
)

// toyQueue is a minimal Checkpointable: a FIFO of pushed values whose
// pops are audited against the log, with a running op count as clock.
type toyQueue struct {
	vals      []uint64
	applied   uint64 // clock: total ops applied
	verify    error  // injected VerifyRecovered failure
	restoring []byte // payload blocks of a restore in progress
}

func (q *toyQueue) SnapshotKind() string    { return "toy" }
func (q *toyQueue) SnapshotVersion() uint32 { return 1 }

func (q *toyQueue) payload() []byte {
	var e Enc
	e.U64(q.applied)
	e.U32(uint32(len(q.vals)))
	for _, v := range q.vals {
		e.U64(v)
	}
	return e.B
}

func (q *toyQueue) SnapshotSize() int { return len(q.payload()) }

func (q *toyQueue) EncodeSnapshot(off int, dst []byte) { copy(dst, q.payload()[off:]) }

// RestoreSnapshot gathers the blocks and decodes the payload at the
// last one.
func (q *toyQueue) RestoreSnapshot(version uint32, size, off int, b []byte) error {
	if version != 1 {
		return fmt.Errorf("toy: bad version %d", version)
	}
	if off != len(q.restoring) {
		return fmt.Errorf("toy: block at %d, have %d bytes", off, len(q.restoring))
	}
	q.restoring = append(q.restoring, b...)
	if len(q.restoring) < size {
		return nil
	}
	d := NewDec(q.restoring)
	q.restoring = nil
	applied := d.U64()
	n := d.Len(1 << 20)
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = d.U64()
	}
	if err := d.Done(); err != nil {
		return err
	}
	q.applied, q.vals = applied, vals
	return nil
}

func (q *toyQueue) ResetSnapshot() { q.vals, q.applied, q.restoring = nil, 0, nil }

func (q *toyQueue) Replay(op Op) error {
	switch op.Kind {
	case hw.Push:
		q.vals = append(q.vals, op.Value)
	case hw.Pop:
		if len(q.vals) == 0 {
			return errors.New("toy: replay pop on empty queue")
		}
		if q.vals[0] != op.Value {
			return fmt.Errorf("toy: replay divergence: have %d, log says %d", q.vals[0], op.Value)
		}
		q.vals = q.vals[1:]
	default:
		return fmt.Errorf("toy: bad op kind %v", op.Kind)
	}
	q.applied++
	return nil
}

func (q *toyQueue) VerifyRecovered() error { return q.verify }

// push/pop drive a live toy queue, mirroring how the real harnesses
// pair queue mutation with Record.
func (q *toyQueue) push(m *Manager, v uint64) error {
	q.vals = append(q.vals, v)
	q.applied++
	return m.Record(Op{Kind: hw.Push, Cycle: q.applied, Value: v})
}

func (q *toyQueue) pop(m *Manager) error {
	v := q.vals[0]
	q.vals = q.vals[1:]
	q.applied++
	return m.Record(Op{Kind: hw.Pop, Cycle: q.applied, Value: v})
}

func TestManagerFreshDirIsEmpty(t *testing.T) {
	dir := t.TempDir()
	q := &toyQueue{}
	m, rep, err := Open(dir, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if rep.WALRecords != 0 || rep.SnapshotSeq != 0 || rep.TornTail {
		t.Fatalf("fresh dir report %+v", rep)
	}
}

func TestManagerReplayFromGenesis(t *testing.T) {
	dir := t.TempDir()
	q := &toyQueue{}
	m, _, err := Open(dir, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := q.push(m, uint64(i*10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.pop(m); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	q2 := &toyQueue{}
	m2, rep, err := Open(dir, q2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if rep.SnapshotSeq != 0 || rep.ReplayedOps != 6 {
		t.Fatalf("report %+v, want genesis replay of 6 ops", rep)
	}
	if len(q2.vals) != 4 || q2.vals[0] != 10 || q2.applied != 6 {
		t.Fatalf("recovered state %+v", q2)
	}
}

func TestManagerCheckpointPlusSuffix(t *testing.T) {
	dir := t.TempDir()
	q := &toyQueue{}
	m, _, err := Open(dir, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := q.push(m, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Suffix past the checkpoint.
	if err := q.push(m, 99); err != nil {
		t.Fatal(err)
	}
	if err := q.pop(m); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	q2 := &toyQueue{}
	m2, rep, err := Open(dir, q2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if rep.SnapshotSeq != 1 || rep.SnapshotLSN != 4 || rep.ReplayedOps != 2 {
		t.Fatalf("report %+v, want snapshot at LSN 4 plus 2 replayed", rep)
	}
	if len(q2.vals) != 4 || q2.vals[3] != 99 || q2.applied != 6 {
		t.Fatalf("recovered state %+v", q2)
	}
}

func TestManagerSnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	q := &toyQueue{}
	reg := obs.NewRegistry()
	m, _, err := Open(dir, q, Options{Retain: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.push(m, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := q.push(m, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the newest snapshot: recovery must fall back to snapshot
	// 1 and replay the suffix past it.
	path := filepath.Join(dir, snapName(2))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	q2 := &toyQueue{}
	m2, rep, err := Open(dir, q2, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if rep.SnapshotSeq != 1 || rep.SnapshotsSkipped != 1 || rep.ReplayedOps != 1 {
		t.Fatalf("report %+v, want fallback to seq 1 with 1 skip", rep)
	}
	if len(q2.vals) != 2 || q2.vals[1] != 2 {
		t.Fatalf("recovered state %+v", q2)
	}
	if got := reg.Snapshot().Counters["persist_snapshots_skipped_total"]; got != 1 {
		t.Fatalf("skip counter %d, want 1", got)
	}
}

func TestManagerTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	q := &toyQueue{}
	m, _, err := Open(dir, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := q.push(m, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash mid-record: append half a record of garbage.
	walPath := filepath.Join(dir, walName)
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(make([]byte, RecordLen/2))
	f.Close()

	reg := obs.NewRegistry()
	q2 := &toyQueue{}
	m2, rep, err := Open(dir, q2, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TornTail || rep.TornBytes != int64(RecordLen/2) || rep.WALRecords != 3 {
		t.Fatalf("report %+v, want torn tail of %d bytes over 3 records", rep, RecordLen/2)
	}
	snap := reg.Snapshot()
	if snap.Counters["persist_torn_tails_total"] != 1 || snap.Counters["persist_torn_bytes_total"] != uint64(RecordLen/2) {
		t.Fatalf("torn counters %v", snap.Counters)
	}
	// The truncated log must be clean: append and re-recover.
	if err := q2.push(m2, 7); err != nil {
		t.Fatal(err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	q3 := &toyQueue{}
	m3, rep3, err := Open(dir, q3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if rep3.TornTail || rep3.WALRecords != 4 || len(q3.vals) != 4 {
		t.Fatalf("re-recovery report %+v state %+v", rep3, q3)
	}
}

func TestManagerRetention(t *testing.T) {
	dir := t.TempDir()
	q := &toyQueue{}
	m, _, err := Open(dir, q, Options{}) // default Retain 2
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := q.push(m, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := OSFS{}.ReadDirNames(dir)
	snaps := 0
	for _, n := range names {
		if _, ok := parseSnapName(n); ok {
			snaps++
		}
	}
	if snaps != 2 {
		t.Fatalf("%d snapshots retained, want 2 (dir: %v)", snaps, names)
	}
	// The newest must carry seq 4.
	q2 := &toyQueue{}
	m2, rep, err := Open(dir, q2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if rep.SnapshotSeq != 4 {
		t.Fatalf("recovered from seq %d, want 4", rep.SnapshotSeq)
	}
}

func TestManagerLSNAheadOfWALRejected(t *testing.T) {
	// A snapshot claiming to cover more records than the log holds must
	// be skipped (it postdates the durable log — e.g. the log was torn
	// back past it).
	dir := t.TempDir()
	q := &toyQueue{}
	m, _, err := Open(dir, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := q.push(m, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the whole WAL away: snapshot LSN 3 > 0 records.
	if err := os.Truncate(filepath.Join(dir, walName), 0); err != nil {
		t.Fatal(err)
	}

	// With the checkpoint manifest still present, the missing records
	// contradict its sealed chain head: recovery must refuse with a
	// localising integrity error, not silently restart from genesis.
	if _, _, err := Open(dir, &toyQueue{}, Options{}); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("recovery error %v, want ErrIntegrity (manifest seals 3 records)", err)
	}

	// A legacy directory (no manifest) has nothing sealing the log
	// length; the over-claiming snapshot is simply skipped.
	if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatal(err)
	}
	q2 := &toyQueue{}
	m2, rep, err := Open(dir, q2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if rep.SnapshotSeq != 0 || rep.SnapshotsSkipped != 1 || len(q2.vals) != 0 {
		t.Fatalf("report %+v state %+v, want snapshot skipped", rep, q2)
	}
}

func TestManagerVerifyFailureRefusesRecovery(t *testing.T) {
	dir := t.TempDir()
	q := &toyQueue{}
	m, _, err := Open(dir, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.push(m, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	bad := errors.New("invariants broken")
	if _, _, err := Open(dir, &toyQueue{verify: bad}, Options{}); !errors.Is(err, bad) {
		t.Fatalf("recovery error %v, want verification failure", err)
	}
}

func TestManagerAttachSupersedesHistory(t *testing.T) {
	dir := t.TempDir()
	q := &toyQueue{}
	m, _, err := Open(dir, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := q.push(m, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// A live queue with different state one-shot-checkpoints into the
	// same directory; its snapshot must supersede the 3 old WAL records.
	live := &toyQueue{vals: []uint64{7, 8}, applied: 10}
	am, err := Attach(dir, live, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := am.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := am.Close(); err != nil {
		t.Fatal(err)
	}

	q2 := &toyQueue{}
	m2, rep, err := Open(dir, q2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if rep.SnapshotLSN != 3 || rep.ReplayedOps != 0 {
		t.Fatalf("report %+v, want snapshot at LSN 3 with empty suffix", rep)
	}
	if len(q2.vals) != 2 || q2.vals[0] != 7 || q2.applied != 10 {
		t.Fatalf("recovered state %+v, want the live queue's", q2)
	}
}

// TestManagerCrashDiskPrefix drives a workload over a CrashDisk with a
// tight byte budget, then recovers with the real filesystem: the
// recovered operation log must be a prefix of what was issued, and the
// recovered state must replay cleanly.
func TestManagerCrashDiskPrefix(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		dir := t.TempDir()
		disk := NewCrashDisk(200+37*seed, seed)
		q := &toyQueue{}
		m, _, err := Open(dir, q, Options{FS: disk, WAL: WALOptions{BatchOps: 3}})
		if err != nil {
			t.Fatal(err)
		}
		var issued []uint64
		for i := 0; i < 100; i++ {
			v := uint64(i)
			if err := q.push(m, v); err != nil {
				if !errors.Is(err, ErrKilled) {
					t.Fatalf("seed %d: non-crash error %v", seed, err)
				}
				break
			}
			issued = append(issued, v)
			if i%10 == 9 {
				if err := m.Checkpoint(); err != nil {
					if !errors.Is(err, ErrKilled) {
						t.Fatalf("seed %d: checkpoint error %v", seed, err)
					}
					break
				}
			}
		}
		if !disk.Killed() {
			t.Fatalf("seed %d: budget never exhausted (wrote %d bytes)", seed, disk.BytesWritten())
		}

		q2 := &toyQueue{}
		m2, rep, err := Open(dir, q2, Options{})
		if err != nil {
			t.Fatalf("seed %d: recovery failed: %v", seed, err)
		}
		m2.Close()
		if len(rep.Ops) > len(issued) {
			t.Fatalf("seed %d: recovered %d ops, only %d issued", seed, len(rep.Ops), len(issued))
		}
		for i, op := range rep.Ops {
			if op.Value != issued[i] {
				t.Fatalf("seed %d: recovered op %d value %d, issued %d", seed, i, op.Value, issued[i])
			}
		}
		if len(q2.vals) != len(rep.Ops) {
			t.Fatalf("seed %d: state %d vals for %d ops", seed, len(q2.vals), len(rep.Ops))
		}
	}
}

// TestManagerCrashDiskNonAtomicSnapshot forces the torn-snapshot path:
// with NonAtomicSnapshots a crash mid-snapshot leaves a corrupt .snap
// under its final name, which recovery must skip.
func TestManagerCrashDiskNonAtomicSnapshot(t *testing.T) {
	recoveredWithSkip := false
	for seed := int64(0); seed < 20 && !recoveredWithSkip; seed++ {
		dir := t.TempDir()
		disk := NewCrashDisk(150+11*seed, seed)
		q := &toyQueue{}
		m, _, err := Open(dir, q, Options{FS: disk, NonAtomicSnapshots: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if err := q.push(m, uint64(i)); err != nil {
				break
			}
			if i%5 == 4 {
				if err := m.Checkpoint(); err != nil {
					break
				}
			}
		}
		q2 := &toyQueue{}
		m2, rep, err := Open(dir, q2, Options{})
		if err != nil {
			t.Fatalf("seed %d: recovery failed: %v", seed, err)
		}
		m2.Close()
		if rep.SnapshotsSkipped > 0 {
			recoveredWithSkip = true
		}
	}
	if !recoveredWithSkip {
		t.Fatal("no trial produced a torn snapshot to skip; widen the budget sweep")
	}
}
