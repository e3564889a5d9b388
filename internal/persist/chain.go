// WAL hash chain: every record's CRC and payload are folded into a
// running sha256, and the writer seals the running head into the log as
// a periodic *chain-point* record. A per-record CRC proves a record is
// internally consistent; the chain proves the *sequence* is — no record
// was replaced, reordered or dropped — and the sealed head published in
// the checkpoint manifest lets recovery authenticate the whole log
// against one 32-byte value.
//
// Chain-point framing (little-endian, same header as op records):
//
//	offset  size  field
//	0       4     payload length (always 41)
//	4       4     CRC32C over the payload
//	8       1     chain kind byte (0xC1; outside the hw.OpKind space)
//	9       8     LSN the head covers
//	17      32    sha256 chain head after that LSN's record
//
// Chain-points carry no queue state: readers skip them, the LSN does
// not advance, and their deterministic placement (after every
// ChainEvery-th record) makes the byte offset of any LSN computable.

package persist

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/hw"
)

const (
	chainKind       = 0xC1 // payload tag byte; hw.OpKind stops at Pop=2
	chainPayloadLen = 1 + 8 + sha256.Size
	// ChainRecordLen is the on-disk size of one chain-point record.
	ChainRecordLen = recHeaderLen + chainPayloadLen
	// DefaultChainEvery is the chain-point interval when WALOptions
	// leaves ChainEvery zero.
	DefaultChainEvery = 256
)

// chainSeed is the domain-separated genesis head: the chain of an empty
// log. Derived, not stored, so every log agrees on LSN 0.
var chainSeed = sha256.Sum256([]byte("bmw-wal-chain/v1"))

// ChainState is the running hash chain position: Head authenticates
// every record up to and including LSN.
type ChainState struct {
	LSN  uint64
	Head [sha256.Size]byte
}

// NewChain returns the genesis chain state (LSN 0, seed head).
func NewChain() ChainState { return ChainState{Head: chainSeed} }

// Extend folds one record (its CRC and payload bytes) into the chain:
// H(n) = sha256(H(n-1) || crc_le || payload).
func (c ChainState) Extend(crc uint32, payload []byte) ChainState {
	h := sha256.New()
	h.Write(c.Head[:])
	var cb [4]byte
	putU32(cb[:], crc)
	h.Write(cb[:])
	h.Write(payload)
	var out ChainState
	out.LSN = c.LSN + 1
	h.Sum(out.Head[:0])
	return out
}

// AppendChainPoint encodes one sealed chain-point record onto dst.
func AppendChainPoint(dst []byte, c ChainState) []byte {
	var payload [chainPayloadLen]byte
	payload[0] = chainKind
	putU64(payload[1:], c.LSN)
	copy(payload[9:], c.Head[:])
	var hdr [recHeaderLen]byte
	putU32(hdr[0:], chainPayloadLen)
	putU32(hdr[4:], crc32.Checksum(payload[:], castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload[:]...)
}

// BuildWALImage encodes ops (LSNs 1..len) as a complete log image with
// chain-points after every chainEvery-th record — byte-identical to
// what a WAL writer configured the same way produces. It returns the
// image and the final chain state. chainEvery <= 0 disables seals.
func BuildWALImage(ops []Op, chainEvery int) ([]byte, ChainState) {
	chain := NewChain()
	var b []byte
	for _, op := range ops {
		b = AppendRecord(b, op)
		payload := b[len(b)-recPayloadLen:]
		chain = chain.Extend(crc32.Checksum(payload, castagnoli), payload)
		if chainEvery > 0 && chain.LSN%uint64(chainEvery) == 0 {
			b = AppendChainPoint(b, chain)
		}
	}
	return b, chain
}

// Corruption classes a WAL/snapshot verification can report. They drive
// both the operator-facing message and the repair strategy.
const (
	ClassWALRecord     = "wal-record"     // op record unparseable or chain-divergent
	ClassWALChainPoint = "wal-chainpoint" // sealed head disagrees with recomputed chain
	ClassWALTruncated  = "wal-truncated"  // log ends before the manifest's record count
	ClassSnapshotChunk = "snapshot-chunk" // snapshot chunk hash differs from manifest leaf
	ClassManifest      = "manifest"       // manifest unreadable, torn or field-invalid
)

// BadRange localises one detected corruption to an inclusive LSN range.
type BadRange struct {
	FromLSN uint64
	ToLSN   uint64
	Class   string
	Detail  string
}

func (r BadRange) String() string {
	if r.FromLSN == r.ToLSN {
		return fmt.Sprintf("%s LSN %d (%s)", r.Class, r.FromLSN, r.Detail)
	}
	return fmt.Sprintf("%s LSNs %d-%d (%s)", r.Class, r.FromLSN, r.ToLSN, r.Detail)
}

// ErrIntegrity is the sentinel all durable-state integrity violations
// wrap: unlike a torn tail, the damage is *inside* committed state and
// recovery refuses to proceed silently.
var ErrIntegrity = errors.New("persist: durable-state integrity violation")

// IntegrityError reports detected corruption with enough localisation
// to drive repair: which file, which LSN ranges, which snapshot chunks.
type IntegrityError struct {
	Path   string
	Ranges []BadRange // WAL damage, by LSN range
	Chunks []int      // snapshot damage, by chunk index
	Reason string
}

func (e *IntegrityError) Error() string {
	msg := fmt.Sprintf("persist: integrity violation in %s", e.Path)
	if e.Reason != "" {
		msg += ": " + e.Reason
	}
	for _, r := range e.Ranges {
		msg += "; " + r.String()
	}
	if len(e.Chunks) > 0 {
		msg += fmt.Sprintf("; corrupt chunks %v", e.Chunks)
	}
	return msg
}

// Unwrap lets errors.Is(err, ErrIntegrity) match.
func (e *IntegrityError) Unwrap() error { return ErrIntegrity }

// VerifiedOp is one decoded record with the LSN the verifier assigned
// it (LSNs around a corrupt gap stay correct via chain-point resync).
type VerifiedOp struct {
	LSN uint64
	Op  Op
}

// WALVerifyReport is the outcome of VerifyWALImage: the decoded
// records, the recomputed chain, and every localised fault.
type WALVerifyReport struct {
	// Ops holds every record that decoded cleanly, labelled with its
	// LSN. When Bad is empty the LSNs are contiguous from 1.
	Ops []VerifiedOp
	// LSN is the highest sequence number reached (including records
	// lost inside Bad ranges, when a chain-point re-anchored the count).
	LSN uint64
	// Chain is the running chain after the last record. When a resync
	// adopted a sealed head the value is provisional until checked
	// against the manifest head.
	Chain ChainState
	// ChainPoints counts seals that verified against the recomputed
	// chain.
	ChainPoints int
	// ValidBytes is the length of the parseable prefix — the truncation
	// point when only the tail is torn.
	ValidBytes int64
	// TornTail reports unparseable bytes at end-of-file with no later
	// chain-point to resync on: indistinguishable from a crash tear.
	TornTail  bool
	TornBytes int64
	// Bad localises mid-log corruption: damage *before* later valid
	// data, which a crash cannot produce.
	Bad []BadRange
	// HeadMismatch reports the recomputed chain at the expected LSN
	// disagreed with the caller-supplied head.
	HeadMismatch bool
}

// Err converts the report into an *IntegrityError, or nil when the
// image is clean (a torn tail alone is a recovery event, not an
// integrity violation).
func (r *WALVerifyReport) Err(path string) error {
	if len(r.Bad) == 0 {
		return nil
	}
	return &IntegrityError{Path: path, Ranges: r.Bad}
}

// parseFrameAt decodes one frame at off. reason is "" on success;
// otherwise it describes why the bytes are not a valid frame.
func parseFrameAt(b []byte, off int) (op Op, cp ChainState, isCP bool, frameLen int, reason string) {
	rest := b[off:]
	if len(rest) < recHeaderLen {
		return op, cp, false, 0, fmt.Sprintf("partial header: %d of %d bytes", len(rest), recHeaderLen)
	}
	length := getU32(rest)
	switch length {
	case recPayloadLen:
		if len(rest) < RecordLen {
			return op, cp, false, 0, fmt.Sprintf("partial payload: %d of %d bytes", len(rest)-recHeaderLen, recPayloadLen)
		}
		payload := rest[recHeaderLen:RecordLen]
		if crc32.Checksum(payload, castagnoli) != getU32(rest[4:]) {
			return op, cp, false, 0, "checksum mismatch"
		}
		op = Op{
			Kind:  hw.OpKind(payload[0]),
			Cycle: getU64(payload[1:]),
			Value: getU64(payload[9:]),
			Meta:  getU64(payload[17:]),
		}
		if !op.Kind.Valid() || op.Kind == hw.Nop {
			return Op{}, cp, false, 0, fmt.Sprintf("invalid op kind %d", payload[0])
		}
		return op, cp, false, RecordLen, ""
	case chainPayloadLen:
		if len(rest) < ChainRecordLen {
			return op, cp, false, 0, fmt.Sprintf("partial chain-point: %d of %d bytes", len(rest)-recHeaderLen, chainPayloadLen)
		}
		payload := rest[recHeaderLen:ChainRecordLen]
		if crc32.Checksum(payload, castagnoli) != getU32(rest[4:]) {
			return op, cp, false, 0, "chain-point checksum mismatch"
		}
		if payload[0] != chainKind {
			return op, cp, false, 0, fmt.Sprintf("invalid chain kind %d", payload[0])
		}
		cp.LSN = getU64(payload[1:])
		copy(cp.Head[:], payload[9:])
		return op, cp, true, ChainRecordLen, ""
	default:
		return op, cp, false, 0, fmt.Sprintf("payload length %d, want %d or %d", length, recPayloadLen, chainPayloadLen)
	}
}

// resyncChainPoint scans forward from off for the next parseable
// chain-point frame sealing at least minLSN, returning its offset (or
// -1) and decoded state. Seals below minLSN are skipped: a valid log's
// chain-points are monotonic, so a backwards seal is itself damage (or
// a stale log fragment spliced in) and must not rewind the verifier's
// sequence count.
func resyncChainPoint(b []byte, off int, minLSN uint64) (int, ChainState) {
	for ; off+ChainRecordLen <= len(b); off++ {
		if getU32(b[off:]) != chainPayloadLen {
			continue
		}
		_, cp, isCP, _, reason := parseFrameAt(b, off)
		if isCP && reason == "" && cp.LSN >= minLSN {
			return off, cp
		}
	}
	return -1, ChainState{}
}

// VerifyWALImage walks a log image verifying framing and the hash
// chain, localising any damage to LSN ranges. expect, when non-nil, is
// the manifest's sealed head: the recomputed chain at expect.LSN must
// match it, and a log shorter than expect.LSN is reported as truncated
// rather than merely torn. The function never panics on arbitrary
// input and never returns torn bytes as data.
func VerifyWALImage(b []byte, expect *ChainState) *WALVerifyReport {
	r := &WALVerifyReport{Chain: NewChain()}
	var lastSeal uint64 // LSN of the last chain anchor (seal or resync)
	var headAtExpect *[sha256.Size]byte
	var sealAtExpect uint64
	off := 0
	for off < len(b) {
		op, cp, isCP, frameLen, reason := parseFrameAt(b, off)
		if reason != "" {
			// Damage at off. If a later chain-point parses, this is
			// mid-log corruption: resync there, report the LSN gap.
			// Otherwise everything to EOF is a torn tail.
			ns, ncp := resyncChainPoint(b, off+1, r.LSN)
			if ns < 0 {
				r.TornTail = true
				r.TornBytes = int64(len(b) - off)
				break
			}
			from := r.LSN + 1
			if ncp.LSN < from {
				// The seal covers the already-decoded prefix: the damage
				// sits between records, lose no LSNs.
				from = ncp.LSN
			}
			r.Bad = append(r.Bad, BadRange{
				FromLSN: from, ToLSN: ncp.LSN,
				Class: ClassWALRecord, Detail: reason,
			})
			r.LSN = ncp.LSN
			r.Chain = ncp // provisional: authenticated by expect / later seals
			lastSeal = ncp.LSN
			off = ns + ChainRecordLen
			r.ValidBytes = int64(off)
			continue
		}
		if isCP {
			switch {
			case cp.LSN != r.LSN:
				r.Bad = append(r.Bad, BadRange{
					FromLSN: r.LSN, ToLSN: r.LSN,
					Class:  ClassWALChainPoint,
					Detail: fmt.Sprintf("chain-point sealed LSN %d at record %d", cp.LSN, r.LSN),
				})
			case cp.Head != r.Chain.Head:
				// Either the seal's stored hash rotted, or the records
				// since the last anchor were tampered with CRC-valid
				// frames. Keep the recomputed chain: if the next seal
				// agrees with it, the damage was this seal alone.
				r.Bad = append(r.Bad, BadRange{
					FromLSN: lastSeal + 1, ToLSN: cp.LSN,
					Class:  ClassWALChainPoint,
					Detail: "sealed head disagrees with recomputed chain",
				})
			default:
				r.ChainPoints++
				lastSeal = cp.LSN
			}
			off += frameLen
			r.ValidBytes = int64(off)
			continue
		}
		payload := b[off+recHeaderLen : off+RecordLen]
		r.Chain = r.Chain.Extend(crc32.Checksum(payload, castagnoli), payload)
		r.LSN++
		r.Ops = append(r.Ops, VerifiedOp{LSN: r.LSN, Op: op})
		off += frameLen
		r.ValidBytes = int64(off)
		if expect != nil && r.LSN == expect.LSN {
			h := r.Chain.Head
			headAtExpect = &h
			sealAtExpect = lastSeal
		}
	}
	if expect != nil {
		switch {
		case expect.LSN == 0:
			// Genesis head: nothing to compare.
		case expect.LSN > r.LSN:
			r.HeadMismatch = true
			r.Bad = append(r.Bad, BadRange{
				FromLSN: r.LSN + 1, ToLSN: expect.LSN,
				Class:  ClassWALTruncated,
				Detail: fmt.Sprintf("log ends at LSN %d, manifest seals %d", r.LSN, expect.LSN),
			})
		case headAtExpect == nil:
			// expect.LSN was inside a corrupt gap; Bad already covers it.
			r.HeadMismatch = true
		case *headAtExpect != expect.Head:
			r.HeadMismatch = true
			r.Bad = append(r.Bad, BadRange{
				FromLSN: sealAtExpect + 1, ToLSN: expect.LSN,
				Class:  ClassWALRecord,
				Detail: "chain head disagrees with manifest seal",
			})
		}
	}
	return r
}
