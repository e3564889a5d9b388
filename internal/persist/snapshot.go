// Snapshot envelope: a versioned, self-checksummed container for one
// queue's EncodeSnapshot payload.
//
// File layout (little-endian):
//
//	offset  size  field
//	0       8     magic "BMWSNAP1"
//	8       1     kind length K
//	9       K     kind ("core")
//	9+K     4     codec version (the queue's SnapshotVersion)
//	13+K    8     sequence number (monotonic per directory)
//	21+K    8     LSN: WAL records this snapshot covers
//	29+K    4     payload length P
//	33+K    P     payload (EncodeSnapshot output)
//	33+K+P  4     CRC32C over every preceding byte
//
// The trailing whole-file checksum is the torn-snapshot defence: a
// crash mid-write (or a bit flip while the file is being produced)
// fails validation and recovery falls back to the previous snapshot.

package persist

import (
	"fmt"
	"hash/crc32"
)

var snapMagic = []byte("BMWSNAP1")

const maxSnapKind = 255

// SnapshotHeader identifies one snapshot.
type SnapshotHeader struct {
	Kind    string
	Version uint32
	Seq     uint64
	LSN     uint64
}

// EncodeSnapshotFile wraps a payload in the checksummed envelope. The
// file is built in one buffer of its exact length, so the payload is
// copied once.
func EncodeSnapshotFile(h SnapshotHeader, payload []byte) ([]byte, error) {
	if len(h.Kind) == 0 || len(h.Kind) > maxSnapKind {
		return nil, fmt.Errorf("persist: snapshot kind %q length out of range", h.Kind)
	}
	e := Enc{B: make([]byte, 0, len(snapMagic)+1+len(h.Kind)+4+8+8+4+len(payload)+4)}
	e.B = append(e.B, snapMagic...)
	e.U8(uint8(len(h.Kind)))
	e.B = append(e.B, h.Kind...)
	e.U32(h.Version)
	e.U64(h.Seq)
	e.U64(h.LSN)
	e.Bytes(payload)
	e.U32(crc32.Checksum(e.B, castagnoli))
	return e.B, nil
}

// DecodeSnapshotFile validates an envelope and returns its header and
// payload. Any truncation, bit error or format mismatch returns an
// error; the caller treats the file as invalid and falls back.
func DecodeSnapshotFile(b []byte) (SnapshotHeader, []byte, error) {
	var h SnapshotHeader
	if len(b) < len(snapMagic)+4 {
		return h, nil, fmt.Errorf("persist: snapshot file too short (%d bytes)", len(b))
	}
	if string(b[:len(snapMagic)]) != string(snapMagic) {
		return h, nil, fmt.Errorf("persist: bad snapshot magic")
	}
	body, sum := b[:len(b)-4], getU32(b[len(b)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return h, nil, fmt.Errorf("persist: snapshot checksum mismatch")
	}
	d := NewDec(body[len(snapMagic):])
	kind := d.take(int(d.U8()))
	h.Kind = string(kind)
	h.Version = d.U32()
	h.Seq = d.U64()
	h.LSN = d.U64()
	payload := d.Bytes()
	if err := d.Done(); err != nil {
		return h, nil, fmt.Errorf("persist: snapshot envelope malformed: %w", err)
	}
	if h.Kind == "" {
		return h, nil, fmt.Errorf("persist: snapshot kind empty")
	}
	return h, payload, nil
}
