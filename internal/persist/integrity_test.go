package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/obs"
)

func chainOps(n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Kind: hw.Push, Cycle: uint64(i + 1), Value: uint64(i) * 7, Meta: uint64(i)}
	}
	return ops
}

func TestChainImageRoundTrip(t *testing.T) {
	ops := chainOps(700)
	img, chain := BuildWALImage(ops, 256)
	if chain.LSN != 700 {
		t.Fatalf("chain LSN %d, want 700", chain.LSN)
	}
	// 700 records, seals at 256 and 512.
	wantLen := 700*RecordLen + 2*ChainRecordLen
	if len(img) != wantLen {
		t.Fatalf("image %d bytes, want %d", len(img), wantLen)
	}
	rep := VerifyWALImage(img, &chain)
	if err := rep.Err("img"); err != nil || rep.TornTail || rep.HeadMismatch {
		t.Fatalf("clean image: err=%v torn=%v mismatch=%v", err, rep.TornTail, rep.HeadMismatch)
	}
	if rep.ChainPoints != 2 || len(rep.Ops) != 700 || rep.LSN != 700 {
		t.Fatalf("report %d seals %d ops lsn %d", rep.ChainPoints, len(rep.Ops), rep.LSN)
	}
	for i, v := range rep.Ops {
		if v.LSN != uint64(i+1) || v.Op != ops[i] {
			t.Fatalf("op %d: lsn %d op %+v", i, v.LSN, v.Op)
		}
	}
	// Reader (the strict streaming decoder) agrees with the verifier.
	got, valid, err := ReadAll(img)
	if err != nil || valid != int64(len(img)) || len(got) != 700 {
		t.Fatalf("ReadAll: %d ops, valid %d, err %v", len(got), valid, err)
	}
}

func TestChainWriterMatchesBuilder(t *testing.T) {
	// The live writer must produce byte-identical images to
	// BuildWALImage, so tests can build a writer's log directly.
	f := &fakeFile{}
	w := NewWAL(f, 0, WALOptions{BatchOps: 3, ChainEvery: 4})
	ops := chainOps(11)
	for _, op := range ops {
		if err := w.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	img, chain := BuildWALImage(ops, 4)
	if !bytes.Equal(f.buf.Bytes(), img) {
		t.Fatalf("writer image differs from BuildWALImage (%d vs %d bytes)", f.buf.Len(), len(img))
	}
	if w.Chain() != chain {
		t.Fatalf("writer chain %+v, builder %+v", w.Chain(), chain)
	}
}

func TestChainLocalisesMidLogCorruption(t *testing.T) {
	ops := chainOps(600)
	img, chain := BuildWALImage(ops, 100)
	// Flip one byte inside record LSN 150's payload.
	off := 149*RecordLen + ChainRecordLen + recHeaderLen + 3
	img[off] ^= 0x40
	rep := VerifyWALImage(img, &chain)
	if len(rep.Bad) != 1 {
		t.Fatalf("bad ranges %v, want exactly one", rep.Bad)
	}
	bad := rep.Bad[0]
	if bad.Class != ClassWALRecord || bad.FromLSN != 150 || bad.ToLSN != 200 {
		t.Fatalf("range %+v, want wal-record 150-200", bad)
	}
	// Everything after the resync seal still decodes with correct LSNs.
	if rep.LSN != 600 || rep.Ops[len(rep.Ops)-1].LSN != 600 {
		t.Fatalf("verification did not resume: lsn %d", rep.LSN)
	}
	if !errors.Is(rep.Err("wal"), ErrIntegrity) {
		t.Fatalf("Err() = %v, want ErrIntegrity", rep.Err("wal"))
	}
}

func TestChainLocalisesCorruptSeal(t *testing.T) {
	ops := chainOps(300)
	img, chain := BuildWALImage(ops, 100)
	// Flip a byte of the *hash* inside the second seal (after record
	// 200). CRC of the seal frame then fails -> parse falls to resync.
	sealOff := 200*RecordLen + ChainRecordLen // start of seal #2's frame
	img[sealOff+recHeaderLen+10] ^= 0x01
	rep := VerifyWALImage(img, &chain)
	if len(rep.Bad) != 1 || rep.Bad[0].Class != ClassWALRecord {
		t.Fatalf("bad %v", rep.Bad)
	}
	// The damage is confined between the seals around the broken one.
	if rep.Bad[0].FromLSN != 201 || rep.Bad[0].ToLSN != 300 {
		t.Fatalf("range %+v, want 201-300 (resync at seal 300)", rep.Bad[0])
	}
}

func TestChainDetectsTruncationAgainstSeal(t *testing.T) {
	ops := chainOps(100)
	img, chain := BuildWALImage(ops, 1000) // no interior seals
	rep := VerifyWALImage(img[:50*RecordLen], &chain)
	if len(rep.Bad) != 1 || rep.Bad[0].Class != ClassWALTruncated {
		t.Fatalf("bad %v, want wal-truncated", rep.Bad)
	}
	if rep.Bad[0].FromLSN != 51 || rep.Bad[0].ToLSN != 100 {
		t.Fatalf("range %+v, want 51-100", rep.Bad[0])
	}
	// Without a sealed head the same prefix is simply a shorter log.
	if rep := VerifyWALImage(img[:50*RecordLen], nil); len(rep.Bad) != 0 {
		t.Fatalf("unsealed prefix flagged: %v", rep.Bad)
	}
}

func TestChainTornTailStaysTorn(t *testing.T) {
	// Damage at EOF with no later seal is a torn tail (crash damage),
	// not an integrity violation.
	ops := chainOps(10)
	img, _ := BuildWALImage(ops, 1000)
	rep := VerifyWALImage(img[:len(img)-5], nil)
	if !rep.TornTail || len(rep.Bad) != 0 || rep.LSN != 9 {
		t.Fatalf("torn=%v bad=%v lsn=%d", rep.TornTail, rep.Bad, rep.LSN)
	}
	if rep.ValidBytes != int64(9*RecordLen) {
		t.Fatalf("valid bytes %d", rep.ValidBytes)
	}
}

// TestMerkleLeavesParallel checks MerkleLeaves against a one-digest
// serial reference at chunk counts on both sides of the serial cutoff,
// even and odd, with full and short final chunks, at GOMAXPROCS 1 and
// 4, and pins one root computed before the leaves were parallel.
func TestMerkleLeavesParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const cs = 100
	ref := func(b []byte) [][sha256.Size]byte {
		var out [][sha256.Size]byte
		for off := 0; off < len(b); off += cs {
			out = append(out, sha256.Sum256(append([]byte{0x00}, b[off:min(off+cs, len(b))]...)))
		}
		return out
	}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2*merkleRunChunks - 1, 2 * merkleRunChunks, 2*merkleRunChunks + 1, 5*merkleRunChunks + 3} {
			for _, short := range []int{0, 37} {
				size := n * cs
				if n > 0 && short > 0 {
					size -= cs - short
				}
				b := make([]byte, size)
				for i := range b {
					b[i] = byte(i * 31)
				}
				got, want := MerkleLeaves(b, cs), ref(b)
				if len(got) != len(want) {
					t.Fatalf("procs=%d n=%d short=%d: %d leaves, want %d", procs, n, short, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("procs=%d n=%d short=%d: leaf %d differs", procs, n, short, i)
					}
				}
			}
		}
	}
	b := make([]byte, 97*DefaultChunkSize+1234)
	for i := range b {
		b[i] = byte(i * 31 >> 3)
	}
	root := MerkleRoot(MerkleLeaves(b, 0))
	if got := hex.EncodeToString(root[:]); got != "9a7a4c82a3ab0e3e6a5c50fb14a9fd2fff3f861e67401a097277a95ead10e4e8" {
		t.Fatalf("98-leaf root %s moved", got)
	}
}

func TestManifestRoundTripAndFieldErrors(t *testing.T) {
	dir := t.TempDir()
	q := &toyQueue{}
	m, _, err := Open(dir, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5; i++ {
		if err := q.push(m, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	man, err := LoadManifest(OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.WALRecords != 5 || man.SnapshotSeq != 1 || man.SnapshotLSN != 5 {
		t.Fatalf("manifest %+v", man)
	}

	path := filepath.Join(dir, ManifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A flipped field fails the self-checksum with a typed error.
	tampered := bytes.Replace(raw, []byte(`"wal_records": 5`), []byte(`"wal_records": 6`), 1)
	if bytes.Equal(tampered, raw) {
		t.Fatal("tamper did not apply")
	}
	_, err = DecodeManifest(path, tampered)
	var me *ManifestError
	if !errors.As(err, &me) || me.Field != "checksum" {
		t.Fatalf("tampered manifest error %v, want ManifestError on checksum", err)
	}
	if !errors.Is(err, ErrManifest) {
		t.Fatalf("err %v does not wrap ErrManifest", err)
	}

	// Torn JSON (truncated write) is a typed refusal, never a panic.
	_, err = DecodeManifest(path, raw[:len(raw)/2])
	if !errors.As(err, &me) || me.Field != "(json)" {
		t.Fatalf("torn manifest error %v, want ManifestError on (json)", err)
	}

	// Structured field errors name the field.
	var doc Manifest
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	doc.ChainEvery = -1
	sum, _ := ManifestChecksum(doc)
	doc.Checksum = sum
	b2, _ := json.Marshal(doc)
	if _, err := DecodeManifest(path, b2); !errors.As(err, &me) || me.Field != "chain_every" {
		t.Fatalf("chain_every error %v", err)
	}
}

func TestRecoveryVerifiesManifestAndSnapshotRoot(t *testing.T) {
	dir := t.TempDir()
	q := &toyQueue{}
	m, _, err := Open(dir, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 300; i++ {
		if err := q.push(m, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean reopen: manifest and snapshot root verified.
	q2 := &toyQueue{}
	m2, rep, err := Open(dir, q2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ManifestVerified || !rep.SnapshotRootVerified {
		t.Fatalf("report %+v, want manifest+root verified", rep)
	}
	if rep.ChainPoints != 1 {
		t.Fatalf("chain points %d, want 1 (300 records, seal at 256)", rep.ChainPoints)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}

	// Rot a byte inside the snapshot. Lenient recovery skips it (and
	// with no older snapshot, replays from genesis); strict refuses
	// with chunk localisation.
	snap := filepath.Join(dir, snapName(1))
	sb, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	sb[len(sb)/2] ^= 0x20
	if err := os.WriteFile(snap, sb, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = Open(dir, &toyQueue{}, Options{StrictIntegrity: true})
	var ie *IntegrityError
	if !errors.As(err, &ie) || len(ie.Chunks) == 0 {
		t.Fatalf("strict error %v, want IntegrityError with chunk localisation", err)
	}

	q3 := &toyQueue{}
	m3, rep3, err := Open(dir, q3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if rep3.SnapshotSeq != 0 || rep3.SnapshotsSkipped != 1 || rep3.ReplayedOps != 300 {
		t.Fatalf("lenient report %+v, want snapshot skipped and full replay", rep3)
	}
	if len(q3.vals) != 300 {
		t.Fatalf("recovered %d vals", len(q3.vals))
	}
}

func TestRetireBlockedByCorruptRetainedSnapshot(t *testing.T) {
	// Satellite: retirement must not advance past an unverifiable
	// snapshot — deleting older good copies while a newer one is rotten
	// could destroy the last restorable state.
	dir := t.TempDir()
	reg := obs.NewRegistry()
	q := &toyQueue{}
	m, _, err := Open(dir, q, Options{Retain: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	checkpoint := func(v uint64) {
		t.Helper()
		if err := q.push(m, v); err != nil {
			t.Fatal(err)
		}
		if err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint(1) // snap 1
	checkpoint(2) // snap 2

	// Rot snapshot 2 on disk, then checkpoint again. Retention wants to
	// keep {2,3} and delete 1 — but 2 no longer verifies, so nothing
	// may retire.
	snap2 := filepath.Join(dir, snapName(2))
	sb, err := os.ReadFile(snap2)
	if err != nil {
		t.Fatal(err)
	}
	sb[len(sb)-10] ^= 0xFF
	if err := os.WriteFile(snap2, sb, 0o644); err != nil {
		t.Fatal(err)
	}
	checkpoint(3) // snap 3

	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := os.Stat(filepath.Join(dir, snapName(seq))); err != nil {
			t.Fatalf("snapshot %d missing: retirement advanced past corrupt snap 2", seq)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counter("persist_integrity_retire_blocked_total"); got != 1 {
		t.Fatalf("retire_blocked counter %d, want 1", got)
	}

	// The scrubber flags the rotten retained snapshot.
	sc := NewScrubber(ScrubConfig{Dirs: []string{dir}, Metrics: reg})
	rep := sc.Step()
	found := false
	for _, f := range rep.Findings {
		if f.Class == ClassSnapshotChunk && f.Seq == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("scrub findings %v, want snapshot-chunk on seq 2", rep.Findings)
	}

	// Repairing (rewriting) snapshot 2 unblocks retirement.
	sb[len(sb)-10] ^= 0xFF
	if err := os.WriteFile(snap2, sb, 0o644); err != nil {
		t.Fatal(err)
	}
	checkpoint(4) // snap 4: now {3,4} retained, 1 and 2 retire
	if _, err := os.Stat(filepath.Join(dir, snapName(1))); !os.IsNotExist(err) {
		t.Fatalf("snapshot 1 still present after repair: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName(2))); !os.IsNotExist(err) {
		t.Fatalf("snapshot 2 still present after repair: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestScrubberDetectsAndReportsCorruption(t *testing.T) {
	mk := func(t *testing.T) string {
		dir := t.TempDir()
		q := &toyQueue{}
		m, _, err := Open(dir, q, Options{WAL: WALOptions{ChainEvery: 16}})
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 64; i++ {
			if err := q.push(m, i); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	clean, dirty := mk(t), mk(t)

	// Rot one WAL byte in the dirty directory (inside record 5).
	wal := filepath.Join(dirty, walName)
	wb, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	wb[4*RecordLen+recHeaderLen+2] ^= 0x08
	if err := os.WriteFile(wal, wb, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	var firedDir string
	slept := 0
	sc := NewScrubber(ScrubConfig{
		Dirs:      []string{clean, dirty},
		Metrics:   reg,
		RateBytes: 1 << 30,
		Sleep:     func(d time.Duration) { slept++ },
		OnCorruption: func(dir string, fs []Finding) {
			firedDir = dir
		},
	})
	r1 := sc.Step()
	if !r1.Clean() {
		t.Fatalf("clean dir flagged: %v", r1.Findings)
	}
	if sc.Cursor() != 1 {
		t.Fatalf("cursor %d, want 1 (resumable position)", sc.Cursor())
	}
	r2 := sc.Step()
	if r2.Clean() {
		t.Fatal("dirty dir not flagged")
	}
	if r2.Findings[0].Class != ClassWALRecord || r2.Findings[0].FromLSN != 5 {
		t.Fatalf("finding %+v, want wal-record from LSN 5", r2.Findings[0])
	}
	if firedDir != dirty {
		t.Fatalf("incident hook fired for %q, want %q", firedDir, dirty)
	}
	if slept == 0 {
		t.Fatal("throttle never slept")
	}
	snap := reg.Snapshot()
	if snap.Counter("persist_scrub_dirs_total") != 2 || snap.Counter("persist_scrub_passes_total") != 1 {
		t.Fatalf("scrub counters: dirs=%d passes=%d", snap.Counter("persist_scrub_dirs_total"), snap.Counter("persist_scrub_passes_total"))
	}
	if snap.Counter("persist_scrub_corruptions_total") == 0 {
		t.Fatal("corruption counter not incremented")
	}

	// Second firing is suppressed: incident capture triggers once.
	firedDir = ""
	sc.Step()
	sc.Step()
	if firedDir != "" {
		t.Fatal("incident hook fired twice")
	}
}

func TestWALPoisonedGauge(t *testing.T) {
	reg := obs.NewRegistry()
	f := &fakeFile{}
	w := NewWAL(f, 0, WALOptions{BatchOps: 1})
	w.Instrument(reg, "persist")
	if err := w.Append(Op{Kind: hw.Push, Cycle: 1, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if reg.Snapshot().Gauge("persist_wal_poisoned") != 0 {
		t.Fatal("poisoned gauge set while healthy")
	}
	f.failWrites, f.err = 1, errors.New("disk gone")
	if err := w.Append(Op{Kind: hw.Push, Cycle: 2, Value: 2}); err == nil {
		t.Fatal("append after injected failure succeeded")
	}
	if !w.Poisoned() {
		t.Fatal("WAL not poisoned")
	}
	if reg.Snapshot().Gauge("persist_wal_poisoned") != 1 {
		t.Fatal("poisoned gauge not set")
	}
}
