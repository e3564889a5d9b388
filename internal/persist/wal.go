// The write-ahead log: fixed-size CRC32C-framed records, group-commit
// batching, pluggable fsync policy, and retry-with-backoff on transient
// write errors.
//
// Record framing (all little-endian):
//
//	offset  size  field
//	0       4     payload length (always 25 for the v1 record)
//	4       4     CRC32C (Castagnoli) over the payload bytes
//	8       1     op kind (1 = push, 2 = pop)
//	9       8     commit cycle
//	17      8     value
//	25      8     meta
//
// A record is valid only if the full frame is present, the length field
// matches the v1 payload size, the checksum matches, and the kind byte
// decodes to a push or pop. Anything else is a torn record: the reader
// reports it (typed *TornRecordError) and the byte offset of the last
// valid record, so recovery can truncate the tail.
//
// Interleaved with op records the writer emits chain-point records
// (chain.go): sealed sha256 chain heads every ChainEvery ops. The
// reader verifies and skips them — they carry no queue state — and the
// checkpoint manifest publishes the head so recovery can authenticate
// the whole log, not just each record individually.

package persist

import (
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"repro/internal/obs"
)

// castagnoli is the CRC32C table (the polynomial used by ext4, iSCSI
// and most storage formats; hardware-accelerated by hash/crc32).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	recHeaderLen  = 8
	recPayloadLen = 1 + 8 + 8 + 8
	// RecordLen is the on-disk size of one WAL record.
	RecordLen = recHeaderLen + recPayloadLen
)

// AppendRecord encodes one operation as a framed WAL record onto dst.
func AppendRecord(dst []byte, op Op) []byte {
	var payload [recPayloadLen]byte
	payload[0] = byte(op.Kind)
	putU64(payload[1:], op.Cycle)
	putU64(payload[9:], op.Value)
	putU64(payload[17:], op.Meta)
	var hdr [recHeaderLen]byte
	putU32(hdr[0:], recPayloadLen)
	putU32(hdr[4:], crc32.Checksum(payload[:], castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload[:]...)
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func getU64(b []byte) uint64 {
	return uint64(getU32(b)) | uint64(getU32(b[4:]))<<32
}

// Reader decodes a WAL image record by record. It never panics on
// arbitrary input: a malformed record surfaces as a *TornRecordError
// and Offset() reports the length of the valid prefix before it.
// Chain-point records are verified against the running chain and
// skipped; a mismatched seal reads as a torn record (the localising
// verifier, VerifyWALImage, is the tool for diagnosing those).
type Reader struct {
	b     []byte
	off   int
	chain ChainState
}

// NewReader wraps a WAL image (typically the whole log file).
func NewReader(b []byte) *Reader { return &Reader{b: b, chain: NewChain()} }

// Offset returns the byte offset just past the last valid record — the
// truncation point when the tail is torn.
func (r *Reader) Offset() int64 { return int64(r.off) }

// Chain returns the running hash chain over the records read so far.
func (r *Reader) Chain() ChainState { return r.chain }

// Next decodes the next record. It returns io.EOF at a clean end of the
// log and a *TornRecordError (wrapping ErrTornRecord) for a partial or
// corrupt record; the reader does not advance past a bad record.
func (r *Reader) Next() (Op, error) {
	for {
		rest := r.b[r.off:]
		if len(rest) == 0 {
			return Op{}, io.EOF
		}
		op, cp, isCP, frameLen, reason := parseFrameAt(r.b, r.off)
		if reason != "" {
			return Op{}, &TornRecordError{Offset: int64(r.off), Reason: reason}
		}
		if isCP {
			if cp.LSN != r.chain.LSN || cp.Head != r.chain.Head {
				return Op{}, &TornRecordError{Offset: int64(r.off), Reason: "chain-point disagrees with recomputed chain"}
			}
			r.off += frameLen
			continue
		}
		payload := r.b[r.off+recHeaderLen : r.off+RecordLen]
		r.chain = r.chain.Extend(crc32.Checksum(payload, castagnoli), payload)
		r.off += frameLen
		return op, nil
	}
}

// ReadAll decodes every valid record of a WAL image. valid is the byte
// length of the intact prefix; err is nil for a cleanly terminated log
// and the *TornRecordError for a torn tail. The decoded prefix is
// returned in both cases — a torn tail never hides intact records, and
// torn bytes are never returned as data.
func ReadAll(b []byte) (ops []Op, valid int64, err error) {
	r := NewReader(b)
	for {
		op, e := r.Next()
		if e == io.EOF {
			return ops, r.Offset(), nil
		}
		if e != nil {
			return ops, r.Offset(), e
		}
		ops = append(ops, op)
	}
}

// SyncPolicy selects when the WAL fsyncs.
type SyncPolicy int

const (
	// SyncBatch fsyncs once per group commit (the default): an op is
	// durable once its batch commits.
	SyncBatch SyncPolicy = iota
	// SyncAlways fsyncs after every appended record (BatchOps is
	// effectively 1).
	SyncAlways
	// SyncNone never fsyncs from the append path; only Checkpoint and
	// Close force durability. Crashes may lose every op since the last
	// explicit sync, but never reorder or corrupt the prefix.
	SyncNone
)

// String names the policy as the command-line flags spell it.
func (p SyncPolicy) String() string {
	switch p {
	case SyncBatch:
		return "batch"
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// WALOptions tune the writer.
type WALOptions struct {
	// BatchOps is the group-commit threshold: Append buffers records
	// and commits the batch once this many are pending. <=1 commits
	// every record immediately.
	BatchOps int
	// Sync is the fsync policy.
	Sync SyncPolicy
	// MaxRetries bounds the retry attempts for one commit when a write
	// fails and Transient classifies the error retryable.
	MaxRetries int
	// Backoff is the first retry's sleep; it doubles per attempt.
	// Zero defaults to 1ms.
	Backoff time.Duration
	// Transient classifies write/sync errors as retryable. Nil retries
	// nothing: every error is permanent.
	Transient func(error) bool
	// Sleep replaces time.Sleep in the backoff path (tests).
	Sleep func(time.Duration)
	// ChainEvery is the chain-point interval: a sealed hash-chain head
	// is embedded after every ChainEvery-th record. 0 uses
	// DefaultChainEvery; negative disables seals (legacy layout).
	ChainEvery int
}

// WAL is the write-ahead log writer. It is not safe for concurrent use;
// the queues it logs are single-threaded state machines.
type WAL struct {
	f    File
	opts WALOptions

	buf    []byte
	bufOps int

	lsn     uint64 // records appended (including buffered)
	durable uint64 // records written through the file (per the policy)
	err     error  // sticky: a failed commit poisons the log

	chain ChainState // running hash chain over appended records

	records     *obs.Counter
	bytes       *obs.Counter
	commits     *obs.Counter
	fsyncs      *obs.Counter
	retries     *obs.Counter
	chainPoints *obs.Counter
	poisoned    *obs.Gauge
	lastRetries *obs.Gauge
	// Latency quantiles: how long one group-commit write (and one
	// fsync) takes — the WAL's contribution to the request commit
	// stage — plus the ops-per-commit batch-size distribution the
	// group-commit threshold actually achieves.
	commitNs  *obs.QuantileHistogram
	fsyncNs   *obs.QuantileHistogram
	batchSize *obs.Histogram

	// Flight-recorder stall reporting (SetFlight).
	flight  *obs.FlightRecorder
	stallNs uint64

	commitRetries int // transient retries consumed by the current commit
}

// SetFlight records a FlightWALStall event whenever an fsync takes at
// least stall — the black-box view of storage hiccups that group
// commit latency quantiles only show in aggregate.
func (w *WAL) SetFlight(fr *obs.FlightRecorder, stall time.Duration) {
	w.flight = fr
	if stall > 0 {
		w.stallNs = uint64(stall)
	}
}

// NewWAL wraps an append-positioned file. startLSN is the number of
// records already in the file (recovery passes the replayed count). A
// writer opened at LSN 0 starts the hash chain at genesis; resuming a
// non-empty log without the chain state (legacy callers) disables seal
// emission — use NewWALChained to resume with the recovered chain.
func NewWAL(f File, startLSN uint64, opts WALOptions) *WAL {
	chain := NewChain()
	if startLSN != 0 {
		// Unknown chain position: appending seals would be wrong, so
		// the writer stays seal-silent for this incarnation.
		chain.LSN = startLSN
		opts.ChainEvery = -1
	}
	return NewWALChained(f, chain, opts)
}

// NewWALChained wraps an append-positioned file whose recovered chain
// state is known, so seal emission continues deterministically.
func NewWALChained(f File, chain ChainState, opts WALOptions) *WAL {
	if opts.BatchOps < 1 {
		opts.BatchOps = 1
	}
	if opts.Backoff <= 0 {
		opts.Backoff = time.Millisecond
	}
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	if opts.ChainEvery == 0 {
		opts.ChainEvery = DefaultChainEvery
	}
	return &WAL{f: f, opts: opts, lsn: chain.LSN, durable: chain.LSN, chain: chain}
}

// PoisonedMetric names the gauge a WAL instrumented under prefix holds
// at 1 while it is sticky-poisoned, for readers that gate on it.
func PoisonedMetric(prefix string) string { return prefix + "_wal_poisoned" }

// Instrument registers the writer's counters in reg under prefix
// (nil-safe: a nil registry leaves every probe disabled).
func (w *WAL) Instrument(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	w.records = reg.Counter(prefix + "_wal_records_total")
	w.bytes = reg.Counter(prefix + "_wal_bytes_total")
	w.commits = reg.Counter(prefix + "_wal_commits_total")
	w.fsyncs = reg.Counter(prefix + "_wal_fsyncs_total")
	w.retries = reg.Counter(prefix + "_wal_retry_total")
	w.chainPoints = reg.Counter(prefix + "_wal_chain_points_total")
	reg.Help(PoisonedMetric(prefix), "1 while the log is sticky-poisoned by a permanent write/sync failure")
	w.poisoned = reg.Gauge(PoisonedMetric(prefix))
	reg.Help(prefix+"_wal_last_sync_retries", "transient-error retries consumed by the most recent commit+sync")
	w.lastRetries = reg.Gauge(prefix + "_wal_last_sync_retries")
	reg.Help(prefix+"_wal_commit_ns", "group-commit write latency (write through the file, excluding fsync)")
	w.commitNs = reg.QuantileHistogram(prefix + "_wal_commit_ns")
	reg.Help(prefix+"_wal_fsync_ns", "fsync latency per policy-triggered sync")
	w.fsyncNs = reg.QuantileHistogram(prefix + "_wal_fsync_ns")
	reg.Help(prefix+"_wal_commit_ops", "records per group commit")
	w.batchSize = reg.Histogram(prefix+"_wal_commit_ops",
		[]uint64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
}

// LSN returns the log sequence number: total records appended,
// including any still buffered.
func (w *WAL) LSN() uint64 { return w.lsn }

// Chain returns the running hash chain over every appended record
// (including buffered ones) — the head a checkpoint manifest seals.
func (w *WAL) Chain() ChainState { return w.chain }

// Poisoned reports whether a permanent write/sync failure has latched:
// the log refuses further writes and the owning shard is not durable.
func (w *WAL) Poisoned() bool { return w.err != nil }

// Err returns the sticky error poisoning the log, or nil.
func (w *WAL) Err() error { return w.err }

// poison latches a permanent failure and flips the poisoned gauge.
func (w *WAL) poison(err error) error {
	w.err = err
	w.poisoned.Set(1)
	return err
}

// Durable returns the number of records pushed through the file —
// written, and synced when the policy syncs on commit.
func (w *WAL) Durable() uint64 { return w.durable }

// Append buffers one record and commits the batch when the group-commit
// threshold is reached (always, under SyncAlways).
func (w *WAL) Append(op Op) error {
	if w.err != nil {
		return w.err
	}
	w.buf = AppendRecord(w.buf, op)
	payload := w.buf[len(w.buf)-recPayloadLen:]
	w.chain = w.chain.Extend(crc32.Checksum(payload, castagnoli), payload)
	w.bufOps++
	w.lsn++
	w.records.Inc()
	if w.opts.ChainEvery > 0 && w.lsn%uint64(w.opts.ChainEvery) == 0 {
		w.buf = AppendChainPoint(w.buf, w.chain)
		w.chainPoints.Inc()
	}
	if w.bufOps >= w.opts.BatchOps || w.opts.Sync == SyncAlways {
		return w.Commit()
	}
	return nil
}

// Commit writes the buffered batch to the file (retrying transient
// errors with exponential backoff) and fsyncs per the policy. A
// permanent failure is sticky: the log refuses further writes, because
// a partially written batch may sit beyond the last known-good offset.
func (w *WAL) Commit() error {
	if w.err != nil {
		return w.err
	}
	if w.bufOps == 0 {
		return nil
	}
	var start time.Time
	if w.commitNs != nil {
		start = time.Now()
	}
	w.commitRetries = 0
	if err := w.writeRetry(w.buf); err != nil {
		return w.poison(fmt.Errorf("persist: WAL commit failed: %w", err))
	}
	if w.commitNs != nil {
		w.commitNs.Observe(uint64(time.Since(start)))
	}
	w.batchSize.Observe(uint64(w.bufOps))
	w.bytes.Add(uint64(len(w.buf)))
	w.commits.Inc()
	w.durable += uint64(w.bufOps)
	w.buf = w.buf[:0]
	w.bufOps = 0
	if w.opts.Sync != SyncNone {
		return w.Sync()
	}
	return nil
}

// Sync forces an fsync (with the same retry discipline as writes).
func (w *WAL) Sync() error {
	if w.err != nil {
		return w.err
	}
	var start time.Time
	if w.fsyncNs != nil || w.flight != nil {
		start = time.Now()
	}
	err := w.f.Sync()
	for attempt := 0; err != nil && w.opts.Transient != nil && w.opts.Transient(err) && attempt < w.opts.MaxRetries; attempt++ {
		w.retries.Inc()
		w.commitRetries++
		w.opts.Sleep(w.opts.Backoff << uint(attempt))
		err = w.f.Sync()
	}
	w.lastRetries.Set(float64(w.commitRetries))
	if err != nil {
		return w.poison(fmt.Errorf("persist: WAL fsync failed: %w", err))
	}
	if w.fsyncNs != nil || w.flight != nil {
		el := uint64(time.Since(start))
		w.fsyncNs.Observe(el)
		if w.flight != nil && w.stallNs > 0 && el >= w.stallNs {
			w.flight.Record(obs.FlightWALStall, 0, el, w.stallNs, w.durable)
		}
	}
	w.fsyncs.Inc()
	return nil
}

// writeRetry pushes p through the file, resuming after short writes and
// retrying transient errors with doubling backoff.
func (w *WAL) writeRetry(p []byte) error {
	attempt := 0
	for len(p) > 0 {
		n, err := w.f.Write(p)
		p = p[n:]
		if err == nil {
			if n == 0 && len(p) > 0 {
				return io.ErrShortWrite
			}
			attempt = 0
			continue
		}
		if w.opts.Transient == nil || !w.opts.Transient(err) || attempt >= w.opts.MaxRetries {
			return err
		}
		w.retries.Inc()
		w.commitRetries++
		w.opts.Sleep(w.opts.Backoff << uint(attempt))
		attempt++
	}
	return nil
}
