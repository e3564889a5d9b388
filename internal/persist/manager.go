// Manager: one directory holding a queue's WAL ("wal.log"), its
// snapshots ("snap-<seq>.snap") and a checkpoint manifest
// ("MANIFEST.json"), with the recovery state machine
//
//	verify WAL (chain + framing) -> truncate torn tail -> verify
//	  manifest -> pick newest valid snapshot (Merkle-root checked when
//	  the manifest covers it) -> restore -> replay WAL suffix ->
//	  verify invariants -> live
//
// and the checkpoint discipline
//
//	commit+sync WAL -> stream snapshot (encode, CRC32C and Merkle
//	  leaves block by block; tmp+rename when atomic) -> write manifest
//	  -> retire old snapshots.
//
// Recovery distinguishes a *torn tail* (unparseable bytes at EOF —
// what a crash leaves; truncated and counted) from *mid-log
// corruption* (damage before later valid data, or state contradicting
// the manifest's sealed heads — what bit rot leaves; refused with a
// typed *IntegrityError that localises the damage to LSN ranges or
// snapshot chunks so anti-entropy repair can fetch exactly that).

package persist

import (
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

const walName = "wal.log"

// WALName is the log file name inside a persistence directory, exported
// for the integrity tooling (anti-entropy repair, the bit-rot harness).
const WALName = walName

// snapName formats a snapshot file name; seq is zero-padded so the
// lexical directory order matches the numeric order.
func snapName(seq uint64) string { return fmt.Sprintf("snap-%016d.snap", seq) }

// SnapFileName is snapName exported for the integrity tooling.
func SnapFileName(seq uint64) string { return snapName(seq) }

// parseSnapName extracts the sequence number of a snapshot file name.
func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap")
	if len(digits) == 0 {
		return 0, false
	}
	var seq uint64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

// Options configure a Manager.
type Options struct {
	// WAL tunes the log writer (group commit, fsync policy, retries).
	WAL WALOptions
	// NonAtomicSnapshots writes snapshots directly to their final name
	// instead of tmp+rename. A crash mid-write then leaves a torn
	// .snap file — which the checksum rejects at recovery. The mode
	// exists so the crash harness can exercise exactly that path.
	NonAtomicSnapshots bool
	// Retain is how many snapshots to keep (older ones are removed
	// after a successful checkpoint). 0 means the default of 2; a
	// negative value keeps everything.
	Retain int
	// FS is the filesystem seam; nil uses the real os package.
	FS FS
	// Metrics, when non-nil, receives the persist counters under
	// MetricsPrefix (default "persist") — including the counts accrued
	// during recovery itself.
	Metrics       *obs.Registry
	MetricsPrefix string
	// Flight, when non-nil, receives a FlightWALStall event for every
	// fsync that takes FlightStall or longer (default 50ms), and a
	// FlightIntegrity event for every corruption recovery detects.
	Flight      *obs.FlightRecorder
	FlightStall time.Duration
	// StrictIntegrity refuses recovery when the manifest is invalid or
	// the manifest-covered snapshot fails its Merkle root, instead of
	// counting the fault and falling back. The repair path and the
	// bit-rot harness run strict; a bare daemon stays lenient so legacy
	// directories (no manifest) still restore.
	StrictIntegrity bool
	// ChunkSize overrides the snapshot Merkle chunk size (testing; 0
	// uses DefaultChunkSize).
	ChunkSize int
}

// RecoveryReport describes what recovery found and did.
type RecoveryReport struct {
	// SnapshotSeq and SnapshotLSN identify the restored snapshot
	// (Seq 0: no snapshot, the queue replayed from genesis).
	SnapshotSeq uint64
	SnapshotLSN uint64
	// SnapshotsSkipped counts snapshot files rejected by checksum,
	// version, kind, shape or LSN validation before one restored.
	SnapshotsSkipped int
	// WALRecords is the count of intact log records; ReplayedOps how
	// many of them (the suffix past SnapshotLSN) were replayed.
	WALRecords  int
	ReplayedOps int
	// TornTail reports a partial/corrupt final record was truncated,
	// and TornBytes how many bytes were cut.
	TornTail  bool
	TornBytes int64
	// ChainPoints counts WAL chain seals that verified against the
	// recomputed hash chain.
	ChainPoints int
	// ManifestVerified reports a checkpoint manifest was present and
	// fully valid; ManifestError carries the refusal reason when one
	// was present but rejected (lenient mode records it and proceeds).
	ManifestVerified bool
	ManifestError    string
	// SnapshotRootVerified reports the restored snapshot matched the
	// manifest's Merkle root.
	SnapshotRootVerified bool
	// Ops is the full durable operation log, for differential
	// validation by the crash harness.
	Ops []Op
}

// Manager couples one queue to one persistence directory.
type Manager struct {
	dir  string
	q    Checkpointable
	fsys FS
	opts Options

	wal     *WAL
	walFile File

	nextSeq   uint64
	snaps     []uint64   // live snapshot seqs, ascending
	scanChain ChainState // chain at end of the recovery scan
	manifest  *Manifest  // last manifest this manager wrote

	snapshots        *obs.Counter
	snapshotBytes    *obs.Counter
	snapshotsSkipped *obs.Counter
	tornTails        *obs.Counter
	tornBytes        *obs.Counter
	recoveries       *obs.Counter
	replayed         *obs.Counter
	corruptions      *obs.Counter
	manifestErrors   *obs.Counter
	chainVerified    *obs.Counter
	retireBlocked    *obs.Counter
}

// Open recovers the queue from dir (creating it on first use) and
// returns a Manager appending to its WAL. The queue must be a freshly
// constructed instance with the same configuration (shape) as the one that wrote the directory; on a fresh directory it is
// simply left empty and the report is all zeroes.
func Open(dir string, q Checkpointable, opts Options) (*Manager, *RecoveryReport, error) {
	m, err := newManager(dir, q, opts)
	if err != nil {
		return nil, nil, err
	}
	rep, err := m.recover()
	if err != nil {
		return nil, nil, err
	}
	if err := m.attach(m.scanChain); err != nil {
		return nil, nil, err
	}
	return m, rep, nil
}

// Attach opens dir for writing without restoring anything into q: the
// one-shot checkpoint path for a live queue. Any existing WAL is
// verified (and its torn tail truncated) only to position the LSN and
// chain, so a subsequent checkpoint supersedes the directory's history.
func Attach(dir string, q Checkpointable, opts Options) (*Manager, error) {
	m, err := newManager(dir, q, opts)
	if err != nil {
		return nil, err
	}
	report, err := m.scanWAL(nil)
	if err != nil {
		return nil, err
	}
	m.scanSnaps()
	if err := m.attach(report.Chain); err != nil {
		return nil, err
	}
	return m, nil
}

// newManager validates options and prepares the directory.
func newManager(dir string, q Checkpointable, opts Options) (*Manager, error) {
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	if opts.Retain == 0 {
		opts.Retain = 2
	}
	if opts.MetricsPrefix == "" {
		opts.MetricsPrefix = "persist"
	}
	m := &Manager{dir: dir, q: q, fsys: opts.FS, opts: opts}
	if reg := opts.Metrics; reg != nil {
		p := opts.MetricsPrefix
		m.snapshots = reg.Counter(p + "_snapshots_total")
		m.snapshotBytes = reg.Counter(p + "_snapshot_bytes_total")
		m.snapshotsSkipped = reg.Counter(p + "_snapshots_skipped_total")
		m.tornTails = reg.Counter(p + "_torn_tails_total")
		m.tornBytes = reg.Counter(p + "_torn_bytes_total")
		m.recoveries = reg.Counter(p + "_recoveries_total")
		m.replayed = reg.Counter(p + "_replayed_ops_total")
		m.corruptions = reg.Counter(p + "_integrity_corruptions_total")
		m.manifestErrors = reg.Counter(p + "_integrity_manifest_errors_total")
		m.chainVerified = reg.Counter(p + "_integrity_chain_points_total")
		m.retireBlocked = reg.Counter(p + "_integrity_retire_blocked_total")
	}
	if err := m.fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("persist: create %s: %w", dir, err)
	}
	return m, nil
}

// scanWAL verifies the log image (framing + hash chain, against the
// manifest's sealed head when given), truncating a torn tail in place.
// Mid-log corruption — damage a crash cannot produce — is refused with
// a localising *IntegrityError rather than silently truncated, because
// truncating there would drop committed records that are still intact
// on disk (and recoverable from a peer).
func (m *Manager) scanWAL(expect *ChainState) (*WALVerifyReport, error) {
	path := join(m.dir, walName)
	b, err := m.fsys.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("persist: read WAL: %w", err)
	}
	if errors.Is(err, fs.ErrNotExist) && (expect == nil || expect.LSN == 0) {
		return &WALVerifyReport{Chain: NewChain()}, nil
	}
	report := VerifyWALImage(b, expect)
	m.chainVerified.Add(uint64(report.ChainPoints))
	if ierr := report.Err(path); ierr != nil {
		m.corruptions.Add(uint64(len(report.Bad)))
		m.flightIntegrity(report.Bad)
		return nil, ierr
	}
	if report.TornTail {
		if err := m.fsys.Truncate(path, report.ValidBytes); err != nil {
			return nil, fmt.Errorf("persist: truncate torn WAL tail: %w", err)
		}
		m.tornTails.Inc()
		m.tornBytes.Add(uint64(report.TornBytes))
	}
	return report, nil
}

// flightIntegrity records one flight-recorder event per detected
// corruption range (A/B = LSN range, C unused).
func (m *Manager) flightIntegrity(bad []BadRange) {
	if m.opts.Flight == nil {
		return
	}
	for _, r := range bad {
		m.opts.Flight.RecordMsg(obs.FlightIntegrity, 0, r.Class+": "+r.Detail, r.FromLSN, r.ToLSN, 0)
	}
}

// scanSnaps records the snapshot seqs present in the directory and
// positions nextSeq past the largest (counting even invalid files, so
// a reused directory never collides names).
func (m *Manager) scanSnaps() {
	m.snaps = nil
	names, err := m.fsys.ReadDirNames(m.dir)
	if err != nil {
		m.nextSeq = 1
		return
	}
	var max uint64
	for _, name := range names {
		if seq, ok := parseSnapName(name); ok {
			m.snaps = append(m.snaps, seq)
			if seq > max {
				max = seq
			}
		}
	}
	sort.Slice(m.snaps, func(i, j int) bool { return m.snaps[i] < m.snaps[j] })
	m.nextSeq = max + 1
}

// recover runs the recovery state machine against m.q.
func (m *Manager) recover() (*RecoveryReport, error) {
	rep := &RecoveryReport{}

	// The manifest, when present and valid, supplies the sealed chain
	// head and snapshot root everything else is authenticated against.
	// A missing manifest is a legacy directory (nothing to authenticate
	// beyond per-record CRCs); an invalid one is counted and ignored in
	// lenient mode, refused in strict mode — a crash can only leave a
	// *stale* manifest, never a torn one, because it is published by
	// tmp+rename after the state it describes is durable.
	var expect *ChainState
	man, manErr := LoadManifest(m.fsys, m.dir)
	switch {
	case manErr == nil:
		rep.ManifestVerified = true
		if h, err := man.Head(); err == nil {
			expect = &h
		}
	case errors.Is(manErr, fs.ErrNotExist):
		man = nil
	default:
		man = nil
		m.manifestErrors.Inc()
		rep.ManifestError = manErr.Error()
		if m.opts.Flight != nil {
			m.opts.Flight.RecordMsg(obs.FlightIntegrity, 0, manErr.Error(), 0, 0, 0)
		}
		if m.opts.StrictIntegrity {
			return nil, manErr
		}
	}

	report, err := m.scanWAL(expect)
	if err != nil {
		return nil, err
	}
	ops := make([]Op, len(report.Ops))
	for i, v := range report.Ops {
		ops[i] = v.Op
	}
	rep.Ops = ops
	rep.WALRecords = len(ops)
	rep.TornTail = report.TornTail
	rep.TornBytes = report.TornBytes
	rep.ChainPoints = report.ChainPoints

	// Newest valid snapshot wins; anything that fails checksum, kind,
	// version, LSN plausibility or the queue's own decoder is skipped.
	// The manifest-covered snapshot is additionally held to its Merkle
	// leaves, with chunk-level localisation on mismatch. The queue is
	// restored as the file streams past, so a snapshot that fails
	// anywhere leaves the queue reset before the next one is tried: no
	// queue state outlives a byte that did not authenticate.
	m.scanSnaps()
	for i := len(m.snaps) - 1; i >= 0 && rep.SnapshotSeq == 0; i-- {
		seq := m.snaps[i]
		path := join(m.dir, snapName(seq))
		sc := snapScanner{restore: func(h SnapshotHeader, size, off int, b []byte) error {
			if off == 0 && (h.Kind != m.q.SnapshotKind() || h.LSN > uint64(len(ops))) {
				return fmt.Errorf("persist: snapshot %d (kind %q, LSN %d) does not fit this queue and log", seq, h.Kind, h.LSN)
			}
			return m.q.RestoreSnapshot(h.Version, size, off, b)
		}}
		covered := man != nil && seq == man.SnapshotSeq
		if covered {
			sc.man = man
		}
		res, err := sc.scanFile(m.fsys, path)
		if err != nil {
			rep.SnapshotsSkipped++
			continue
		}
		if !res.clean() {
			m.q.ResetSnapshot()
			if len(res.bad) > 0 {
				m.corruptions.Inc()
				if m.opts.Flight != nil {
					m.opts.Flight.RecordMsg(obs.FlightIntegrity, 0, ClassSnapshotChunk, uint64(seq), uint64(len(res.bad)), 0)
				}
				if m.opts.StrictIntegrity {
					return nil, &IntegrityError{Path: path, Chunks: res.bad,
						Reason: fmt.Sprintf("snapshot %d fails manifest Merkle root (%d bad chunks)", seq, len(res.bad))}
				}
			}
			rep.SnapshotsSkipped++
			continue
		}
		rep.SnapshotRootVerified = covered
		rep.SnapshotSeq = res.hdr.Seq
		rep.SnapshotLSN = res.hdr.LSN
	}
	m.snapshotsSkipped.Add(uint64(rep.SnapshotsSkipped))

	// Replay the suffix the snapshot does not cover.
	for _, op := range ops[rep.SnapshotLSN:] {
		if err := m.q.Replay(op); err != nil {
			return nil, fmt.Errorf("persist: WAL replay failed at op %d: %w", rep.SnapshotLSN+uint64(rep.ReplayedOps), err)
		}
		rep.ReplayedOps++
	}
	m.replayed.Add(uint64(rep.ReplayedOps))

	// The queue goes live only with its invariants intact.
	if err := m.q.VerifyRecovered(); err != nil {
		return nil, fmt.Errorf("persist: recovered queue failed verification: %w", err)
	}
	m.recoveries.Inc()
	m.scanChain = report.Chain
	return rep, nil
}

// attach opens the WAL for appending with the recovered chain state.
func (m *Manager) attach(chain ChainState) error {
	f, err := m.fsys.OpenAppend(join(m.dir, walName))
	if err != nil {
		return fmt.Errorf("persist: open WAL: %w", err)
	}
	m.walFile = f
	m.wal = NewWALChained(f, chain, m.opts.WAL)
	m.wal.Instrument(m.opts.Metrics, m.opts.MetricsPrefix)
	if m.opts.Flight != nil {
		stall := m.opts.FlightStall
		if stall <= 0 {
			stall = 50 * time.Millisecond
		}
		m.wal.SetFlight(m.opts.Flight, stall)
	}
	return nil
}

// WAL exposes the log writer (LSN/Durable introspection).
func (m *Manager) WAL() *WAL { return m.wal }

// Poisoned reports whether the underlying WAL has latched a permanent
// write/sync failure — the shard is no longer durable and readiness
// probes should fail it.
func (m *Manager) Poisoned() bool { return m.wal != nil && m.wal.Poisoned() }

// Dir returns the persistence directory.
func (m *Manager) Dir() string { return m.dir }

// Record appends one operation to the WAL under the group-commit and
// sync policy.
func (m *Manager) Record(op Op) error { return m.wal.Append(op) }

// Checkpoint makes the log durable, snapshots the queue's current state
// stamped with the covered LSN, and retires old snapshots. After a
// successful checkpoint, recovery needs only the snapshot plus the WAL
// suffix written after this call.
func (m *Manager) Checkpoint() error {
	if err := m.wal.Commit(); err != nil {
		return err
	}
	if err := m.wal.Sync(); err != nil {
		return err
	}
	h := SnapshotHeader{
		Kind:    m.q.SnapshotKind(),
		Version: m.q.SnapshotVersion(),
		Seq:     m.nextSeq,
		LSN:     m.wal.LSN(),
	}
	final := join(m.dir, snapName(h.Seq))
	name := final
	if !m.opts.NonAtomicSnapshots {
		name = final + ".tmp"
	}
	f, err := m.fsys.Create(name)
	if err != nil {
		return fmt.Errorf("persist: create snapshot: %w", err)
	}
	leaves, size, err := writeSnapshot(f, h, m.q, m.opts.ChunkSize)
	if err != nil {
		f.Close()
		return fmt.Errorf("persist: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("persist: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: close snapshot: %w", err)
	}
	if !m.opts.NonAtomicSnapshots {
		if err := m.fsys.Rename(name, final); err != nil {
			return fmt.Errorf("persist: publish snapshot: %w", err)
		}
	}
	m.snaps = append(m.snaps, h.Seq)
	m.nextSeq++
	m.snapshots.Inc()
	m.snapshotBytes.Add(uint64(size))

	// The manifest seals what is now durable: the WAL chain head and
	// the snapshot's Merkle root. Written last, so it can only ever be
	// stale, never ahead of the state it authenticates.
	man, err := NewManifest(m.wal.Chain(), m.chainEvery(), h, size, leaves, m.opts.ChunkSize)
	if err != nil {
		return err
	}
	if err := WriteManifest(m.fsys, m.dir, man, m.opts.NonAtomicSnapshots); err != nil {
		return err
	}
	m.manifest = &man
	return m.retire()
}

// chainEvery is the effective chain-point interval the WAL writer uses.
func (m *Manager) chainEvery() int {
	if ce := m.opts.WAL.ChainEvery; ce != 0 {
		return ce
	}
	return DefaultChainEvery
}

// Manifest returns the manifest written by the most recent Checkpoint
// (nil before the first).
func (m *Manager) Manifest() *Manifest { return m.manifest }

// retire removes the oldest snapshots beyond the retention count — but
// only while every snapshot it would keep verifies. An unverifiable
// retained snapshot blocks retirement of everything older than it:
// deleting an older, still-good snapshot while a newer one is rotten
// could destroy the last restorable copy. The scrubber (and the next
// recovery) flag the rot; once repaired, retirement resumes.
func (m *Manager) retire() error {
	if m.opts.Retain < 0 {
		return nil
	}
	keepFrom := len(m.snaps) - m.opts.Retain
	if keepFrom <= 0 {
		return nil
	}
	for _, seq := range m.snaps[keepFrom:] {
		if err := m.verifySnap(seq); err != nil {
			m.retireBlocked.Inc()
			m.corruptions.Inc()
			if m.opts.Flight != nil {
				m.opts.Flight.RecordMsg(obs.FlightIntegrity, 0,
					"retire blocked: "+err.Error(), seq, 0, 0)
			}
			return nil
		}
	}
	for len(m.snaps) > m.opts.Retain {
		seq := m.snaps[0]
		if err := m.fsys.Remove(join(m.dir, snapName(seq))); err != nil {
			return fmt.Errorf("persist: retire snapshot %d: %w", seq, err)
		}
		m.snaps = m.snaps[1:]
	}
	return nil
}

// verifySnap re-reads one snapshot from disk and validates it: envelope
// checksum, kind, and the manifest Merkle leaves when this seq is the
// manifest-covered one.
func (m *Manager) verifySnap(seq uint64) error {
	path := join(m.dir, snapName(seq))
	var sc snapScanner
	if m.manifest != nil && seq == m.manifest.SnapshotSeq {
		sc.man = m.manifest
	}
	res, err := sc.scanFile(m.fsys, path)
	if err != nil {
		return fmt.Errorf("read snapshot %d: %w", seq, err)
	}
	if len(res.bad) > 0 {
		return &IntegrityError{Path: path, Chunks: res.bad,
			Reason: fmt.Sprintf("snapshot %d fails manifest Merkle root", seq)}
	}
	if res.err != nil {
		return fmt.Errorf("snapshot %d: %w", seq, res.err)
	}
	if res.hdr.Kind != m.q.SnapshotKind() {
		return fmt.Errorf("snapshot %d kind %q, want %q", seq, res.hdr.Kind, m.q.SnapshotKind())
	}
	return nil
}

// Close flushes and syncs the WAL and closes the file.
func (m *Manager) Close() error {
	var first error
	if err := m.wal.Commit(); err != nil {
		first = err
	}
	if err := m.wal.Sync(); err != nil && first == nil {
		first = err
	}
	if err := m.walFile.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
