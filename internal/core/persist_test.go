package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/persist"
)

func drive(t *testing.T, tr *Tree, seed int64, ops int) []persist.Op {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var log []persist.Op
	for i := 0; i < ops; i++ {
		if tr.Len() > 0 && (rng.Intn(3) == 0 || tr.AlmostFull()) {
			e, err := tr.Pop()
			if err != nil {
				t.Fatal(err)
			}
			p, q := tr.OpStats()
			log = append(log, persist.Op{Kind: hw.Pop, Cycle: p + q, Value: e.Value, Meta: e.Meta})
			continue
		}
		e := Element{Value: uint64(rng.Intn(1000)), Meta: uint64(i)}
		if err := tr.Push(e); err != nil {
			t.Fatal(err)
		}
		p, q := tr.OpStats()
		log = append(log, persist.Op{Kind: hw.Push, Cycle: p + q, Value: e.Value, Meta: e.Meta})
	}
	return log
}

func drain(t *testing.T, tr *Tree) []Element {
	t.Helper()
	out := make([]Element, 0, tr.Len())
	for tr.Len() > 0 {
		e, err := tr.Pop()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

func TestSnapshotRoundTrip(t *testing.T) {
	a := New(4, 3)
	drive(t, a, 1, 300)
	payload := snapshotPayload(a)

	b := New(4, 3)
	if err := restorePayload(b, a.SnapshotVersion(), payload); err != nil {
		t.Fatal(err)
	}
	if err := b.VerifyRecovered(); err != nil {
		t.Fatal(err)
	}
	ap, aq := a.OpStats()
	bp, bq := b.OpStats()
	if ap != bp || aq != bq || a.Len() != b.Len() || a.HighWatermark() != b.HighWatermark() {
		t.Fatalf("counters diverged: a=(%d,%d,%d,%d) b=(%d,%d,%d,%d)",
			ap, aq, a.Len(), a.HighWatermark(), bp, bq, b.Len(), b.HighWatermark())
	}
	da, db := drain(t, a), drain(t, b)
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("pop %d diverged: %+v vs %+v", i, da[i], db[i])
		}
	}
}

func TestRestoreRejectsShapeMismatch(t *testing.T) {
	a := New(4, 3)
	payload := snapshotPayload(a)
	b := New(2, 3)
	if err := restorePayload(b, 1, payload); err == nil || !strings.Contains(err.Error(), "shape") {
		t.Fatalf("shape mismatch accepted: %v", err)
	}
	if err := restorePayload(New(4, 3), 99, payload); err == nil {
		t.Fatal("unknown version accepted")
	}
}

func TestRestoreRejectsTruncatedPayload(t *testing.T) {
	a := New(2, 3)
	drive(t, a, 2, 50)
	payload := snapshotPayload(a)
	for _, cut := range []int{0, 1, len(payload) / 2, len(payload) - 1} {
		b := New(2, 3)
		if err := restorePayload(b, 1, payload[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
		// A failed restore must leave the receiver untouched and usable.
		if b.Len() != 0 {
			t.Fatalf("failed restore mutated the receiver (len %d)", b.Len())
		}
	}
}

func TestReplayReproducesState(t *testing.T) {
	a := New(3, 3)
	log := drive(t, a, 3, 200)

	b := New(3, 3)
	for i, op := range log {
		if err := b.Replay(op); err != nil {
			t.Fatalf("replay op %d: %v", i, err)
		}
	}
	if err := b.VerifyRecovered(); err != nil {
		t.Fatal(err)
	}
	da, db := drain(t, a), drain(t, b)
	if len(da) != len(db) {
		t.Fatalf("drain lengths %d vs %d", len(da), len(db))
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("pop %d diverged", i)
		}
	}
}

func TestReplayAuditsPopDivergence(t *testing.T) {
	b := New(2, 2)
	if err := b.Replay(persist.Op{Kind: hw.Push, Cycle: 1, Value: 10, Meta: 1}); err != nil {
		t.Fatal(err)
	}
	err := b.Replay(persist.Op{Kind: hw.Pop, Cycle: 2, Value: 999, Meta: 1})
	if err == nil || !strings.Contains(err.Error(), "divergence") {
		t.Fatalf("divergent pop not caught: %v", err)
	}
}

// TestSnapshotBytesStable pins snapshot format version 1 byte for byte.
// Each shape is driven through capacity (so slots are parked, swapped,
// lifted and emptied), half drained, and encoded; the payload's SHA-256
// and the SHA-256 of the restored tree's full drain must equal the
// values the original slot-array layout produced. Any change to how the
// tree stores its slots that leaks into the format, or into pop order
// after a restore, fails here before it can misread a checkpoint on disk.
func TestSnapshotBytesStable(t *testing.T) {
	for _, c := range []struct {
		m, l           int
		seed           int64
		payload, drain string
	}{
		{2, 6, 21,
			"83a995e45ffe77e135ff20fbd385337fd0e3283b3d365a5c78abcc957f759710",
			"d2931dee834da19117f8fdd66da25510a2eaa28935060c3b54bb212300cfb121"},
		{4, 4, 22,
			"d683cf7f3856658c7703267a9628a39d4798e22ff7e68e7d3effe84f8831bf53",
			"09f9f76358a0f13b65a22b8b3c15452ebc5dd86a59b7696b929ab604f23939ca"},
	} {
		tr := New(c.m, c.l)
		drive(t, tr, c.seed, 4*tr.Cap())
		for i := 0; i < tr.Cap()/2; i++ {
			if _, err := tr.Pop(); err != nil {
				t.Fatal(err)
			}
		}
		payload := snapshotPayload(tr)
		sum := sha256.Sum256(payload)
		if got := hex.EncodeToString(sum[:]); got != c.payload {
			t.Errorf("m=%d l=%d: payload sha256 %s, want %s", c.m, c.l, got, c.payload)
		}
		r := New(c.m, c.l)
		if err := restorePayload(r, coreSnapVersion, payload); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, e := range drain(t, r) {
			h.Write(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, e.Value), e.Meta))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.drain {
			t.Errorf("m=%d l=%d: restored drain sha256 %s, want %s", c.m, c.l, got, c.drain)
		}
	}
}

// TestSnapshotCodecAllocs gates the codec's allocations: EncodeSnapshot
// and RestoreSnapshot allocate nothing, whole or block by block.
func TestSnapshotCodecAllocs(t *testing.T) {
	a := New(4, 4)
	drive(t, a, 5, 2*a.Cap())
	payload := make([]byte, a.SnapshotSize())
	if n := testing.AllocsPerRun(100, func() { a.EncodeSnapshot(0, payload) }); n != 0 {
		t.Errorf("EncodeSnapshot: %.1f allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { encodeBlocks(a, payload, 1000) }); n != 0 {
		t.Errorf("EncodeSnapshot in 1000-byte blocks: %.1f allocs, want 0", n)
	}
	b := New(4, 4)
	var err error
	if n := testing.AllocsPerRun(100, func() { err = restorePayload(b, coreSnapVersion, payload) }); n != 0 {
		t.Errorf("RestoreSnapshot: %.1f allocs, want 0", n)
	}
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { err = restoreBlocks(b, payload, 1000) }); n != 0 {
		t.Errorf("RestoreSnapshot in 1000-byte blocks: %.1f allocs, want 0", n)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotBlocksMatchWhole encodes and restores the payload in
// blocks that cut the header and slots at every kind of offset: the
// bytes must equal the one-call encoding, and a tree restored from them
// must encode back to the same bytes.
func TestSnapshotBlocksMatchWhole(t *testing.T) {
	a := New(3, 4)
	drive(t, a, 6, 3*a.Cap())
	whole := snapshotPayload(a)
	for _, block := range []int{1, 7, snapSlotBytes - 1, snapSlotBytes, snapSlotBytes + 1, 4096, len(whole)} {
		got := make([]byte, len(whole))
		encodeBlocks(a, got, block)
		if !bytes.Equal(got, whole) {
			t.Fatalf("%d-byte blocks encode differently from one call", block)
		}
		b := New(3, 4)
		restore := max(block, snapHeaderBytes)
		if err := restoreBlocks(b, whole, restore); err != nil {
			t.Fatalf("%d-byte blocks: %v", restore, err)
		}
		if !bytes.Equal(snapshotPayload(b), whole) {
			t.Fatalf("restored from %d-byte blocks, the tree encodes differently", restore)
		}
	}
	// A first block that cuts the header is refused before the tree
	// changes.
	b := New(3, 4)
	if err := b.RestoreSnapshot(coreSnapVersion, len(whole), 0, whole[:snapHeaderBytes-1]); err == nil {
		t.Fatal("cut header accepted")
	}
	if !bytes.Equal(snapshotPayload(b), snapshotPayload(New(3, 4))) {
		t.Fatal("refused header changed the receiver")
	}
}

// snapshotPayload encodes the tree's whole payload in one call.
func snapshotPayload(t *Tree) []byte {
	b := make([]byte, t.SnapshotSize())
	t.EncodeSnapshot(0, b)
	return b
}

// restorePayload restores a whole payload in one call.
func restorePayload(t *Tree, version uint32, p []byte) error {
	return t.RestoreSnapshot(version, len(p), 0, p)
}

// encodeBlocks encodes the payload into dst block bytes at a time.
func encodeBlocks(t *Tree, dst []byte, block int) {
	for off := 0; off < len(dst); off += block {
		t.EncodeSnapshot(off, dst[off:min(off+block, len(dst))])
	}
}

// restoreBlocks restores p block bytes at a time.
func restoreBlocks(t *Tree, p []byte, block int) error {
	for off := 0; off < len(p); off += block {
		if err := t.RestoreSnapshot(coreSnapVersion, len(p), off, p[off:min(off+block, len(p))]); err != nil {
			return err
		}
	}
	return nil
}

// compatChunkSize makes the fixture's 8 KiB snapshot span 129 Merkle
// chunks, enough for MerkleLeaves to hash them on several goroutines.
const compatChunkSize = 64

// compatTree is the state checkpointed in testdata/ckpt-v1: an order-4
// four-level tree driven through capacity, then half drained.
func compatTree(t *testing.T) *Tree {
	t.Helper()
	tr := New(4, 4)
	drive(t, tr, 40, 4*tr.Cap())
	for i := 0; i < tr.Cap()/2; i++ {
		if _, err := tr.Pop(); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// TestCheckpointDirCompat pins the checkpoint directory across codec
// rewrites, in both directions. testdata/ckpt-v1 is compatTree as
// persist.Attach + Checkpoint wrote it with the earlier field-at-a-time
// codec (persist.Enc appends, persist.Dec reads). That directory must
// verify and restore here to a tree that drains like compatTree; and a
// checkpoint of compatTree written here must equal it file for file, so
// the earlier codec restores what this one writes.
func TestCheckpointDirCompat(t *testing.T) {
	golden := filepath.Join("testdata", "ckpt-v1")
	names, err := os.ReadDir(golden)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	m, err := persist.Attach(dir, compatTree(t), persist.Options{ChunkSize: compatChunkSize})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != len(names) {
		t.Fatalf("checkpoint wrote %d files, the fixture holds %d", len(written), len(names))
	}
	restoreDir := t.TempDir()
	for _, e := range names {
		want, err := os.ReadFile(filepath.Join(golden, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: written file (%d bytes) differs from the fixture (%d bytes)", e.Name(), len(got), len(want))
		}
		if err := os.WriteFile(filepath.Join(restoreDir, e.Name()), want, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if r := persist.VerifyDir(nil, restoreDir); !r.Clean() {
		t.Fatalf("fixture fails VerifyDir: %s", r.Findings[0].String())
	}
	got := New(4, 4)
	m, rep, err := persist.Open(restoreDir, got, persist.Options{ChunkSize: compatChunkSize, StrictIntegrity: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if rep.SnapshotSeq != 1 || !rep.SnapshotRootVerified {
		t.Fatalf("fixture restored snapshot seq %d, root verified %v", rep.SnapshotSeq, rep.SnapshotRootVerified)
	}
	want := compatTree(t)
	gp, gq := got.OpStats()
	wp, wq := want.OpStats()
	if gp != wp || gq != wq || got.Len() != want.Len() || got.HighWatermark() != want.HighWatermark() {
		t.Fatalf("restored counters (%d,%d,%d,%d), want (%d,%d,%d,%d)",
			gp, gq, got.Len(), got.HighWatermark(), wp, wq, want.Len(), want.HighWatermark())
	}
	dg, dw := drain(t, got), drain(t, want)
	for i := range dw {
		if dg[i] != dw[i] {
			t.Fatalf("pop %d: restored %+v, want %+v", i, dg[i], dw[i])
		}
	}
}
