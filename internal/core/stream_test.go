package core

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/hw"
	"repro/internal/persist"
)

// paperOpts is a WAL without an fsync per append, for filling trees of
// the paper's geometry quickly.
var paperOpts = persist.Options{WAL: persist.WALOptions{BatchOps: 64, Sync: persist.SyncNone}}

// recordOps pushes push elements and then pops pop, recording each
// accepted op through m.
func recordOps(t *testing.T, tr *Tree, m *persist.Manager, push, pop int) {
	t.Helper()
	for i := 0; i < push; i++ {
		e := Element{Value: uint64(i * 7919 % 100003), Meta: uint64(tr.Len())<<20 | uint64(i)}
		if err := tr.Push(e); err != nil {
			t.Fatal(err)
		}
		if err := m.Record(persist.Op{Kind: hw.Push, Value: e.Value, Meta: e.Meta}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < pop; i++ {
		e, err := tr.Pop()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Record(persist.Op{Kind: hw.Pop, Value: e.Value, Meta: e.Meta}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoverRottedChunkMidSnapshot rots one chunk in the third block
// of a paper-geometry snapshot (2.1 MB, five stream blocks), so the
// first two blocks are already restored into the queue when the rot
// shows. Lenient recovery must reset the queue and restore the older
// retained snapshot plus the WAL suffix — or, with no older snapshot,
// replay from genesis — and count the skip; strict recovery must refuse
// with an *IntegrityError naming the chunk. The tree's invariants hold
// in every case.
func TestRecoverRottedChunkMidSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a paper-geometry tree")
	}
	dir := t.TempDir()
	tr := New(4, 8)
	m, _, err := persist.Open(dir, tr, paperOpts)
	if err != nil {
		t.Fatal(err)
	}
	recordOps(t, tr, m, tr.Cap()/2, 1000)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	recordOps(t, tr, m, tr.Cap()/4, 3000)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	recordOps(t, tr, m, 500, 200)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	man := m.Manifest()
	const rotChunk = 300 // 128 chunks a block: the third block
	path := filepath.Join(dir, persist.SnapFileName(man.SnapshotSeq))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[rotChunk*persist.DefaultChunkSize+17] ^= 0x08
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	want := snapshotPayload(tr)

	strict := New(4, 8)
	_, _, err = persist.Open(dir, strict, persist.Options{StrictIntegrity: true})
	var ierr *persist.IntegrityError
	if !errors.As(err, &ierr) || !slices.Equal(ierr.Chunks, []int{rotChunk}) {
		t.Fatalf("strict recovery: %v, want an IntegrityError naming chunk %d", err, rotChunk)
	}
	if err := strict.CheckInvariants(); err != nil {
		t.Fatalf("strict recovery left a broken tree: %v", err)
	}

	for _, older := range []bool{true, false} {
		if !older {
			if err := os.Remove(filepath.Join(dir, persist.SnapFileName(man.SnapshotSeq-1))); err != nil {
				t.Fatal(err)
			}
		}
		got := New(4, 8)
		rm, rep, err := persist.Open(dir, got, paperOpts)
		if err != nil {
			t.Fatalf("lenient recovery (older snapshot %v): %v", older, err)
		}
		if err := rm.Close(); err != nil {
			t.Fatal(err)
		}
		wantSeq := man.SnapshotSeq - 1
		if !older {
			wantSeq = 0
		}
		if rep.SnapshotSeq != wantSeq || rep.SnapshotsSkipped != 1 {
			t.Fatalf("older snapshot %v: restored seq %d skipping %d, want seq %d skipping 1", older, rep.SnapshotSeq, rep.SnapshotsSkipped, wantSeq)
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(snapshotPayload(got), want) {
			t.Fatalf("older snapshot %v: recovered tree differs from the one checkpointed", older)
		}
	}
}

// TestCheckpointRestoreAllocBytes gates what one Checkpoint and one
// restore of a paper-geometry tree (2.1 MB snapshot) allocate: the
// snapshot streams through a pooled buffer, so each stays under 1 MiB.
func TestCheckpointRestoreAllocBytes(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("fills a paper-geometry tree; counts pooled buffers, which -race drops")
	}
	const limit = 1 << 20
	dir := t.TempDir()
	tr := New(4, 8)
	for i := 0; i < 3*tr.Cap()/4; i++ {
		if err := tr.Push(Element{Value: uint64(i * 7919 % 100003), Meta: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := persist.Attach(dir, tr, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		before := totalAlloc()
		if err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		n := totalAlloc() - before
		t.Logf("Checkpoint %d allocated %d bytes", i, n)
		if i > 0 && n > limit {
			t.Errorf("Checkpoint %d allocated %d bytes, want <= %d", i, n, limit)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got := New(4, 8)
		before := totalAlloc()
		rm, _, err := persist.Open(dir, got, persist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := rm.Close(); err != nil {
			t.Fatal(err)
		}
		n := totalAlloc() - before
		t.Logf("restore %d allocated %d bytes", i, n)
		if i > 0 && n > limit {
			t.Errorf("restore %d allocated %d bytes, want <= %d", i, n, limit)
		}
		if got.Len() != tr.Len() {
			t.Fatalf("restored %d elements of %d", got.Len(), tr.Len())
		}
	}
}

// totalAlloc is the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
