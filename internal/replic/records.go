// Package replic is WAL-shipping hot-standby replication for the
// sharded engine: the primary taps every executed batch into an
// in-memory, sequence-numbered log of per-shard operation records plus
// retry-dedup records, streams it to followers over the wire protocol's
// replication frames, and a follower applies the stream to its own
// engine — per shard, in LSN order — until promoted.
//
// The unit of shipping is the atomic batch group: one executed request
// becomes its successful ops' records followed by (for dedup-enrolled
// sessions) one dedup record carrying the encoded response, appended to
// the log as a unit with the last record flagged as the group end. A
// follower applies groups all-or-nothing — a group's ops and its dedup
// record land together or not at all — and acknowledges only the
// contiguous, fully-applied prefix of the stream. So a client ack gated
// on the follower's ack (synchronous mode) implies the follower can
// reproduce both the state and the response, and a primary kill loses
// no acknowledged op and duplicates none.
package replic

import (
	"fmt"

	"encoding/binary"

	"repro/internal/engine"
	"repro/internal/wire"
)

// RecKind discriminates log records.
type RecKind uint8

// Record kinds.
const (
	// RecOp is one applied queue mutation on one shard.
	RecOp RecKind = 1
	// RecDedup is one dedup-cache entry: a session's request id and its
	// encoded TBatchOK response, appended after its group's op records.
	RecDedup RecKind = 2
)

// Op codes inside a RecOp record.
const (
	OpPush uint8 = 1
	OpPop  uint8 = 2
)

// Record is one replication log entry. For RecOp, Shard/LSN place the
// mutation, Op selects push or pop, and Value/Meta carry the pushed
// element — or, for a pop, the element the primary popped, which the
// follower checks its own pop against. For RecDedup, Session/ReqID/Resp
// carry the cached response. End marks the last record of an atomic log
// group; it is what lets a follower reassemble group boundaries from a
// flat record stream and apply groups all-or-nothing.
type Record struct {
	Kind RecKind
	End  bool

	Shard uint32
	LSN   uint64
	Op    uint8
	Value uint64
	Meta  uint64

	Session uint64
	ReqID   uint64
	Resp    []byte
}

// Manifest is the engine geometry a follower must match before a
// stream is granted: replaying a history against a different shard
// count or tree shape diverges silently, so mismatches are refused at
// the handshake.
type Manifest struct {
	Shards uint32
	// Kind is the retired queue-kind byte: 0, the core tree, on every
	// engine that serves. A peer still naming a simulator kind differs
	// here and is refused like any other mismatch.
	Kind          uint8
	Order, Levels uint32
}

// ManifestOf derives the manifest from an engine config (after its
// defaults are applied).
func ManifestOf(cfg engine.Config) Manifest {
	cfg = cfg.Normalized()
	return Manifest{Shards: uint32(cfg.Shards), Order: uint32(cfg.Order), Levels: uint32(cfg.Levels)}
}

// Payload sizes.
const (
	helloSize   = 4 + 1 + 1 + 4 + 4 + 8 + 4 + 8 + 8 // manifest + resume seq + log id
	replOKSize  = 8 + 8                             // tip seq + log id
	recOpSize   = 1 + 4 + 8 + 1 + 8 + 8
	recDedupMin = 1 + 8 + 8 + 4
	// recEndFlag is OR-ed into the record kind byte on the last record
	// of an atomic log group.
	recEndFlag = 0x80
	// MaxRecordsPerFrame bounds one TReplRecords frame; together with
	// frameBytes it keeps frames under wire.MaxPayload.
	MaxRecordsPerFrame = 512
	// frameBytes bounds the record bytes of one TReplRecords frame (a
	// single record larger than it still ships, alone) and the file
	// bytes of one TReplChunk answer.
	frameBytes = 512 << 10
)

// AppendReplHello encodes a TReplHello payload: the follower's
// manifest, the stream sequence after which it wants records, and the
// identity of the log that sequence was minted against (0 when the
// follower has no history yet). Three slots are retired: byte 5 (push
// routing), bytes 14:22 (the PIFO capacity) and 22:26 (rank bits). They
// are written as engine.LegacyRouting, LegacyCap and LegacyRankBits — an
// older primary started with default flags compares them and accepts
// us — and ignored on parse.
func AppendReplHello(dst []byte, m Manifest, resume, logID uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, m.Shards)
	dst = append(dst, m.Kind, engine.LegacyRouting)
	dst = binary.LittleEndian.AppendUint32(dst, m.Order)
	dst = binary.LittleEndian.AppendUint32(dst, m.Levels)
	dst = binary.LittleEndian.AppendUint64(dst, engine.LegacyCap)
	dst = binary.LittleEndian.AppendUint32(dst, engine.LegacyRankBits)
	dst = binary.LittleEndian.AppendUint64(dst, resume)
	return binary.LittleEndian.AppendUint64(dst, logID)
}

// ParseReplHello decodes a TReplHello payload.
func ParseReplHello(p []byte) (Manifest, uint64, uint64, error) {
	if len(p) != helloSize {
		return Manifest{}, 0, 0, fmt.Errorf("%w: repl hello payload %d bytes", wire.ErrBadFrame, len(p))
	}
	m := Manifest{
		Shards: binary.LittleEndian.Uint32(p[0:4]),
		Kind:   p[4],
		Order:  binary.LittleEndian.Uint32(p[6:10]),
		Levels: binary.LittleEndian.Uint32(p[10:14]),
	}
	return m, binary.LittleEndian.Uint64(p[26:34]), binary.LittleEndian.Uint64(p[34:42]), nil
}

// AppendReplOK encodes a TReplOK payload: the primary's log tip plus
// its log identity, which a reattaching follower must see unchanged —
// a resume position is only meaningful against the log it was minted
// on.
func AppendReplOK(dst []byte, tip, logID uint64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, tip)
	return binary.LittleEndian.AppendUint64(dst, logID)
}

// ParseReplOK decodes a TReplOK payload.
func ParseReplOK(p []byte) (tip, logID uint64, err error) {
	if len(p) != replOKSize {
		return 0, 0, fmt.Errorf("%w: repl ok payload %d bytes", wire.ErrBadFrame, len(p))
	}
	return binary.LittleEndian.Uint64(p[0:8]), binary.LittleEndian.Uint64(p[8:16]), nil
}

// AppendSeq encodes the u64 payload shared by TReplOK and TReplAck.
func AppendSeq(dst []byte, seq uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, seq)
}

// ParseSeq decodes a TReplOK/TReplAck payload.
func ParseSeq(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("%w: seq payload %d bytes", wire.ErrBadFrame, len(p))
	}
	return binary.LittleEndian.Uint64(p), nil
}

// AppendReplRecords encodes a TReplRecords payload: the stream
// sequence of the first record, then the records. It panics on more
// than MaxRecordsPerFrame records or an oversized dedup response —
// caller bugs, not input conditions.
func AppendReplRecords(dst []byte, first uint64, recs []Record) []byte {
	if len(recs) > MaxRecordsPerFrame {
		panic(fmt.Sprintf("replic: %d records exceed MaxRecordsPerFrame %d", len(recs), MaxRecordsPerFrame))
	}
	dst = appendRecordsHeader(dst, first, len(recs))
	for i := range recs {
		r := &recs[i]
		at := len(dst)
		switch r.Kind {
		case RecOp:
			dst = appendOp(dst, r.Shard, r.LSN, r.Op, r.Value, r.Meta)
		case RecDedup:
			if len(r.Resp) > wire.MaxPayload {
				panic(fmt.Sprintf("replic: dedup response %d bytes", len(r.Resp)))
			}
			dst = appendDedup(dst, r.Session, r.ReqID, r.Resp)
		default:
			panic(fmt.Sprintf("replic: record kind %d", r.Kind))
		}
		if r.End {
			dst[at] |= recEndFlag
		}
	}
	return dst
}

// appendRecordsHeader encodes a TReplRecords payload's header: the
// sequence of its first record and the record count.
func appendRecordsHeader(dst []byte, first uint64, n int) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, first)
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

// appendOp and appendDedup are the one record encoder, shared by the
// frame codec and the log: a record's log bytes are its wire bytes.
// Neither sets the End flag; the caller ORs recEndFlag into the kind
// byte of a group's last record.
func appendOp(dst []byte, shard uint32, lsn uint64, op uint8, value, meta uint64) []byte {
	at := len(dst)
	dst = append(dst, make([]byte, recOpSize)...)
	b := dst[at : at+recOpSize]
	b[0] = byte(RecOp)
	binary.LittleEndian.PutUint32(b[1:5], shard)
	binary.LittleEndian.PutUint64(b[5:13], lsn)
	b[13] = op
	binary.LittleEndian.PutUint64(b[14:22], value)
	binary.LittleEndian.PutUint64(b[22:30], meta)
	return dst
}

func appendDedup(dst []byte, session, reqID uint64, resp []byte) []byte {
	dst = append(dst, byte(RecDedup))
	dst = binary.LittleEndian.AppendUint64(dst, session)
	dst = binary.LittleEndian.AppendUint64(dst, reqID)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(resp)))
	return append(dst, resp...)
}

// ParseReplRecords decodes a TReplRecords payload. Arbitrary input
// never panics; malformed payloads return wire.ErrBadFrame-wrapped
// errors.
func ParseReplRecords(p []byte) (first uint64, recs []Record, err error) {
	if len(p) < 12 {
		return 0, nil, fmt.Errorf("%w: repl records payload %d bytes", wire.ErrBadFrame, len(p))
	}
	first = binary.LittleEndian.Uint64(p[0:8])
	count := binary.LittleEndian.Uint32(p[8:12])
	if count > MaxRecordsPerFrame {
		return 0, nil, fmt.Errorf("%w: repl record count %d", wire.ErrBadFrame, count)
	}
	p = p[12:]
	recs = make([]Record, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(p) < 1 {
			return 0, nil, fmt.Errorf("%w: repl records truncated at %d", wire.ErrBadFrame, i)
		}
		end := p[0]&recEndFlag != 0
		switch RecKind(p[0] &^ recEndFlag) {
		case RecOp:
			if len(p) < recOpSize {
				return 0, nil, fmt.Errorf("%w: op record truncated at %d", wire.ErrBadFrame, i)
			}
			r := Record{
				Kind:  RecOp,
				End:   end,
				Shard: binary.LittleEndian.Uint32(p[1:5]),
				LSN:   binary.LittleEndian.Uint64(p[5:13]),
				Op:    p[13],
				Value: binary.LittleEndian.Uint64(p[14:22]),
				Meta:  binary.LittleEndian.Uint64(p[22:30]),
			}
			if r.Op != OpPush && r.Op != OpPop {
				return 0, nil, fmt.Errorf("%w: op code %d at %d", wire.ErrBadFrame, r.Op, i)
			}
			recs = append(recs, r)
			p = p[recOpSize:]
		case RecDedup:
			if len(p) < recDedupMin {
				return 0, nil, fmt.Errorf("%w: dedup record truncated at %d", wire.ErrBadFrame, i)
			}
			n := binary.LittleEndian.Uint32(p[17:21])
			if n > wire.MaxPayload || len(p) < recDedupMin+int(n) {
				return 0, nil, fmt.Errorf("%w: dedup response %d bytes at %d", wire.ErrBadFrame, n, i)
			}
			recs = append(recs, Record{
				Kind:    RecDedup,
				End:     end,
				Session: binary.LittleEndian.Uint64(p[1:9]),
				ReqID:   binary.LittleEndian.Uint64(p[9:17]),
				Resp:    append([]byte(nil), p[recDedupMin:recDedupMin+int(n)]...),
			})
			p = p[recDedupMin+int(n):]
		default:
			return 0, nil, fmt.Errorf("%w: record kind %d at %d", wire.ErrBadFrame, p[0], i)
		}
	}
	if len(p) != 0 {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes after records", wire.ErrBadFrame, len(p))
	}
	return first, recs, nil
}
