// Package wire is the dependency-free binary protocol that serves the
// sharded scheduling engine over a byte stream: length-prefixed,
// CRC-checked, versioned frames carrying pipelined, batched queue
// operations. cmd/bmwd serves it; cmd/bmwload and the Client here speak
// it.
//
// Frame layout (all integers little-endian):
//
//	offset size
//	0      4    magic "BMW1"
//	4      1    protocol version (2)
//	5      1    frame type
//	6      2    flags (must be zero in version 2)
//	8      8    request id (echoed verbatim in the response)
//	16     4    payload length (0 .. MaxPayload)
//	20     4    CRC-32C over bytes [0,20)
//	24     n    payload
//	24+n   4    CRC-32C over the payload bytes
//
// The header CRC makes framing self-validating: a reader that lands
// mid-stream, or receives a torn prefix, detects it instead of
// misparsing garbage lengths. The payload CRC (version 2) extends that
// to the body: a bit flipped anywhere in a frame — header or payload —
// fails a checksum instead of being delivered as data, which is what
// lets the chaos harness inject byte corruption and demand detection.
// The decoder's contract — enforced by FuzzFrameDecode — is that
// arbitrary input never panics, a torn frame is reported as
// ErrTruncated (needs more bytes) and never surfaced as data, and
// structurally invalid bytes are ErrBadFrame.
//
// Request ids are assigned by the client and echoed by the server, so
// many requests can be in flight on one connection (pipelining);
// responses are matched by id, not position.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// Protocol constants.
const (
	// Magic starts every frame: "BMW1" in stream order.
	Magic = uint32('B') | uint32('M')<<8 | uint32('W')<<16 | uint32('1')<<24
	// Version is the protocol version this package speaks. Version 2
	// appended the payload CRC trailer and the replication/admin frame
	// types; version-1 peers are refused at the handshake.
	Version = 2
	// HeaderSize is the fixed frame-header length in bytes.
	HeaderSize = 24
	// TrailerSize is the payload-CRC trailer length in bytes.
	TrailerSize = 4
	// MaxPayload bounds a frame's payload so a corrupt or hostile
	// length field cannot trigger an unbounded allocation.
	MaxPayload = 1 << 20
)

// Type identifies a frame's meaning.
type Type uint8

// Frame types.
const (
	// THello opens a connection: payload is the client's u32 version.
	THello Type = 1
	// THelloOK accepts: payload is u32 version, u32 shards, u64 capacity.
	THelloOK Type = 2
	// TBatch carries a batch of queue operations (see AppendOps).
	TBatch Type = 3
	// TBatchOK carries the batch's results (see AppendResults).
	TBatchOK Type = 4
	// TError reports an error: payload is a u8 status code followed by
	// a UTF-8 message. It ends the connection unless its status is
	// StatusRefused (see Status.EndsConn), which fails only the request
	// whose id it carries.
	TError Type = 5
	// TReplHello opens a replication stream: a follower's manifest
	// (engine geometry) plus the stream sequence to resume from. The
	// payload codec lives in internal/replic.
	TReplHello Type = 6
	// TReplOK accepts a replication stream: payload is the primary's
	// current log tip sequence.
	TReplOK Type = 7
	// TReplRecords carries a batch of replication log records
	// (per-shard WAL ops and dedup entries), LSN-ordered per shard.
	TReplRecords Type = 8
	// TReplAck reports the follower's contiguous applied stream
	// position back to the primary (u64 sequence).
	TReplAck Type = 9
	// Types 10 and 11 are unassigned: they carried a retired admin
	// command, and no later type was renumbered when it went.
	// TReplFetch asks a peer for the bytes of one checkpoint file from
	// an offset during anti-entropy repair: an engine or shard
	// manifest, a WAL, or a snapshot. The payload codec lives in
	// internal/replic.
	TReplFetch Type = 12
	// TReplChunk answers TReplFetch with the file's size and the
	// requested bytes.
	TReplChunk Type = 13
	// TClusterHello asks a node for its cluster map: payload is the
	// sender's current map version (u64), so an up-to-date peer answers
	// with an empty TClusterMap instead of re-sending the whole map.
	TClusterHello Type = 14
	// TClusterMap carries an encoded cluster map — the answer to
	// TClusterHello, or an unsolicited anti-entropy push between nodes.
	// An empty payload means "nothing newer than the version you sent".
	// The payload codec lives in internal/cluster.
	TClusterMap Type = 15
)

// valid reports whether t is a defined frame type.
func (t Type) valid() bool {
	return t >= THello && t <= TReplAck || t >= TReplFetch && t <= TClusterMap
}

// Decoder errors.
var (
	// ErrTruncated reports that the input ends mid-frame: the bytes so
	// far are a valid prefix, and more input is needed. Torn frames are
	// never returned as data.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrBadFrame reports structurally invalid bytes: wrong magic,
	// unsupported version, unknown type, oversized payload, nonzero
	// flags, or a header CRC mismatch.
	ErrBadFrame = errors.New("wire: bad frame")
)

// castagnoli is the CRC-32C table (same polynomial the persist WAL
// uses).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame is one decoded frame.
type Frame struct {
	Type    Type
	ID      uint64
	Payload []byte
}

// AppendFrame appends the encoding of one frame to dst and returns the
// extended slice. It panics if the payload exceeds MaxPayload — that is
// a caller bug, not an input condition.
func AppendFrame(dst []byte, typ Type, id uint64, payload []byte) []byte {
	if len(payload) > MaxPayload {
		panic(fmt.Sprintf("wire: payload %d exceeds MaxPayload %d", len(payload), MaxPayload))
	}
	off := len(dst)
	dst = append(dst, make([]byte, HeaderSize)...)
	h := dst[off:]
	binary.LittleEndian.PutUint32(h[0:4], Magic)
	h[4] = Version
	h[5] = byte(typ)
	// h[6:8] flags stay zero.
	binary.LittleEndian.PutUint64(h[8:16], id)
	binary.LittleEndian.PutUint32(h[16:20], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[20:24], crc32.Checksum(h[0:20], castagnoli))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
}

// DecodeFrame decodes the first frame in b. It returns the frame, the
// number of bytes consumed, and an error: ErrTruncated when b is a
// valid prefix needing more bytes, ErrBadFrame (wrapped with detail)
// when the bytes cannot be a frame. The returned payload aliases b.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < HeaderSize {
		return Frame{}, 0, ErrTruncated
	}
	h := b[:HeaderSize]
	if got := binary.LittleEndian.Uint32(h[0:4]); got != Magic {
		return Frame{}, 0, fmt.Errorf("%w: magic %#x", ErrBadFrame, got)
	}
	if crc := binary.LittleEndian.Uint32(h[20:24]); crc != crc32.Checksum(h[0:20], castagnoli) {
		return Frame{}, 0, fmt.Errorf("%w: header CRC mismatch", ErrBadFrame)
	}
	if h[4] != Version {
		return Frame{}, 0, fmt.Errorf("%w: version %d", ErrBadFrame, h[4])
	}
	typ := Type(h[5])
	if !typ.valid() {
		return Frame{}, 0, fmt.Errorf("%w: type %d", ErrBadFrame, h[5])
	}
	if h[6] != 0 || h[7] != 0 {
		return Frame{}, 0, fmt.Errorf("%w: nonzero flags", ErrBadFrame)
	}
	n := binary.LittleEndian.Uint32(h[16:20])
	if n > MaxPayload {
		return Frame{}, 0, fmt.Errorf("%w: payload length %d", ErrBadFrame, n)
	}
	total := HeaderSize + int(n) + TrailerSize
	if len(b) < total {
		return Frame{}, 0, ErrTruncated
	}
	payload := b[HeaderSize : HeaderSize+int(n)]
	if crc := binary.LittleEndian.Uint32(b[total-TrailerSize : total]); crc != crc32.Checksum(payload, castagnoli) {
		return Frame{}, 0, fmt.Errorf("%w: payload CRC mismatch", ErrBadFrame)
	}
	return Frame{
		Type:    typ,
		ID:      binary.LittleEndian.Uint64(h[8:16]),
		Payload: payload,
	}, total, nil
}

// headers recycles ReadFrame's header buffers: passed to an io.Reader,
// a stack array escapes, so a pooled one keeps a read at the one
// allocation of the frame itself.
var headers = sync.Pool{New: func() any { return new([HeaderSize]byte) }}

// ReadFrame reads exactly one frame from r. A clean EOF before any
// byte is io.EOF; a stream ending mid-frame is io.ErrUnexpectedEOF —
// the torn bytes are never returned as a frame. The frame's bytes are
// one allocation, which the returned payload aliases.
func ReadFrame(r io.Reader) (Frame, error) {
	hdr := headers.Get().(*[HeaderSize]byte)
	defer headers.Put(hdr)
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	// Validate the header before reading the payload so a corrupt
	// length cannot force a huge blocking read. A bare header always
	// decodes ErrTruncated (the trailer is still missing); anything
	// else is a structural error.
	if _, _, err := DecodeFrame(hdr[:]); !errors.Is(err, ErrTruncated) {
		return Frame{}, err
	}
	buf := make([]byte, HeaderSize+int(binary.LittleEndian.Uint32(hdr[16:20]))+TrailerSize)
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[HeaderSize:]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	f, _, err := DecodeFrame(buf)
	return f, err
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, typ Type, id uint64, payload []byte) error {
	buf := AppendFrame(make([]byte, 0, HeaderSize+len(payload)+TrailerSize), typ, id, payload)
	_, err := w.Write(buf)
	return err
}
