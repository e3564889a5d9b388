// Snapshot envelope: a versioned, self-checksummed container for one
// queue's snapshot payload.
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
//
// A snapshot is never held whole in memory. Every one streams through
// one pooled, chunk-aligned buffer of snapBlockBytes: writeSnapshot has
// the queue encode its payload into the buffer block by block, and
// snapScanner reads a file through it. Both fold each block into the
// CRC32C and the Merkle leaves as it passes, so the writer hands the
// manifest its leaves without a second pass, and a reader checks each
// block against the manifest's leaves before the queue sees a byte of
// it.

package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"sync"
)

var snapMagic = []byte("BMWSNAP1")

const maxSnapKind = 255

// snapHeadMax is the longest envelope header: magic, kind length, a
// maxSnapKind-byte kind, version, seq, LSN and payload length.
const snapHeadMax = 8 + 1 + maxSnapKind + 4 + 8 + 8 + 4

// snapBlockBytes is the stream buffer: 128 chunks at the default chunk
// size. A paper-geometry shard snapshot (2.1 MB) takes five blocks; a
// larger buffer would only add resident memory.
const snapBlockBytes = 512 << 10

// SnapshotHeadBytes is how much of the payload the first
// RestoreSnapshot call of a restore always holds: min(size,
// SnapshotHeadBytes) bytes, so a queue can check a fixed header of up
// to that length before it changes any state.
const SnapshotHeadBytes = 256

// SnapshotHeader identifies one snapshot.
type SnapshotHeader struct {
	Kind    string
	Version uint32
	Seq     uint64
	LSN     uint64
}

// snapBuf is one pooled stream buffer with the digest that hashes it.
type snapBuf struct {
	b []byte
	h hash.Hash
}

var snapBufs = sync.Pool{New: func() any {
	return &snapBuf{b: make([]byte, snapBlockBytes), h: sha256.New()}
}}

// getSnapBuf takes a stream buffer from the pool and returns it with
// the block to use: the most whole chunks that fit in want bytes
// (snapBlockBytes when want is 0), but at least one chunk and at least
// the longest envelope header plus SnapshotHeadBytes, so the first
// block always holds the whole header. Put the snapBuf back when done.
func getSnapBuf(chunkSize, want int) (*snapBuf, []byte) {
	if want <= 0 {
		want = snapBlockBytes
	}
	n := want / chunkSize * chunkSize
	if least := snapHeadMax + SnapshotHeadBytes; n < least {
		n = (least + chunkSize - 1) / chunkSize * chunkSize
	}
	sb := snapBufs.Get().(*snapBuf)
	if len(sb.b) < n {
		sb.b = make([]byte, n)
	}
	return sb, sb.b[:n]
}

// snapHeadLen is the envelope header's length for a kind.
func snapHeadLen(kind string) int { return len(snapMagic) + 1 + len(kind) + 4 + 8 + 8 + 4 }

// putSnapHead writes the envelope header of a size-byte payload at the
// start of b and returns its length.
func putSnapHead(b []byte, h SnapshotHeader, size int) int {
	le := binary.LittleEndian
	n := copy(b, snapMagic)
	b[n] = uint8(len(h.Kind))
	n++
	n += copy(b[n:], h.Kind)
	le.PutUint32(b[n:], h.Version)
	le.PutUint64(b[n+4:], h.Seq)
	le.PutUint64(b[n+12:], h.LSN)
	le.PutUint32(b[n+20:], uint32(size))
	return n + 24
}

// parseSnapHead decodes the envelope header at the start of b, the
// first block of a file: the header, its length and the payload length
// it declares.
func parseSnapHead(b []byte) (SnapshotHeader, int, int, error) {
	var h SnapshotHeader
	if len(b) < len(snapMagic)+4 {
		return h, 0, 0, fmt.Errorf("persist: snapshot file too short (%d bytes)", len(b))
	}
	if string(b[:len(snapMagic)]) != string(snapMagic) {
		return h, 0, 0, fmt.Errorf("persist: bad snapshot magic")
	}
	k := int(b[len(snapMagic)])
	n := len(snapMagic) + 1 + k
	if len(b) < n+24 {
		return h, 0, 0, fmt.Errorf("persist: snapshot envelope malformed: header truncated at %d bytes", len(b))
	}
	le := binary.LittleEndian
	h.Kind = string(b[len(snapMagic)+1 : n])
	h.Version = le.Uint32(b[n:])
	h.Seq = le.Uint64(b[n+4:])
	h.LSN = le.Uint64(b[n+12:])
	size := int(le.Uint32(b[n+20:]))
	if h.Kind == "" {
		return h, 0, 0, fmt.Errorf("persist: snapshot kind empty")
	}
	return h, n + 24, size, nil
}

// snapSource is the encoding half of a Checkpointable.
type snapSource interface {
	SnapshotSize() int
	EncodeSnapshot(off int, dst []byte)
}

// writeSnapshot streams the envelope of src's payload to w through one
// pooled buffer and returns the file's Merkle leaves at chunkSize (0:
// the default) and its length. The queue encodes each block straight
// into the buffer; the block is folded into the CRC32C as it is
// encoded, and hashed and written once it is full.
func writeSnapshot(w io.Writer, h SnapshotHeader, src snapSource, chunkSize int) ([][sha256.Size]byte, int64, error) {
	if len(h.Kind) == 0 || len(h.Kind) > maxSnapKind {
		return nil, 0, fmt.Errorf("persist: snapshot kind %q length out of range", h.Kind)
	}
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	size := src.SnapshotSize()
	total := int64(snapHeadLen(h.Kind)) + int64(size) + 4
	sb, buf := getSnapBuf(chunkSize, 0)
	defer snapBufs.Put(sb)
	leaves := make([][sha256.Size]byte, 0, (total+int64(chunkSize)-1)/int64(chunkSize))
	n := putSnapHead(buf, h, size)
	crc := crc32.Update(0, castagnoli, buf[:n])
	flush := func() error {
		leaves = appendMerkleLeaves(leaves, buf[:n], chunkSize, sb.h)
		_, err := w.Write(buf[:n])
		n = 0
		return err
	}
	for off := 0; off < size; {
		if n == len(buf) {
			if err := flush(); err != nil {
				return nil, 0, err
			}
		}
		k := min(len(buf)-n, size-off)
		src.EncodeSnapshot(off, buf[n:n+k])
		crc = crc32.Update(crc, castagnoli, buf[n:n+k])
		n += k
		off += k
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc)
	for t := sum[:]; len(t) > 0; {
		if n == len(buf) {
			if err := flush(); err != nil {
				return nil, 0, err
			}
		}
		c := copy(buf[n:], t)
		n += c
		t = t[c:]
	}
	if err := flush(); err != nil {
		return nil, 0, err
	}
	return leaves, total, nil
}

// snapScanner reads snapshot files through the pooled buffer. Every
// reader of a snapshot — recovery, retire's read-back, VerifyDir and
// through it the scrubber, DecodeSnapshotFile and SnapshotBadChunks —
// is this one loop.
type snapScanner struct {
	// man, when set, seals the file: every chunk is checked against the
	// manifest's leaf for it.
	man *Manifest
	// chunk is the Merkle chunk size when man is nil (0: the default).
	chunk int
	// restore, when set, is handed the payload in order, one block at a
	// time, each block only once all its chunks have matched the
	// manifest. Deliveries stop at its first error or the first chunk
	// that fails. Without a manifest only the CRC32C at the end
	// authenticates the bytes, so the caller undoes the restore unless
	// the scan comes back clean.
	restore func(h SnapshotHeader, size, off int, b []byte) error
	// block overrides the buffer length (tests).
	block int
}

// snapScan is what one scan found.
type snapScan struct {
	hdr  SnapshotHeader
	size int64 // bytes in the file
	// bad lists the chunks that disagree with the manifest's leaves,
	// including chunks present on one side only.
	bad []int
	// err is the envelope's fault (magic, framing, length or CRC32C),
	// or the read's.
	err error
	// restoreErr is the restore callback's first error.
	restoreErr error
}

// clean reports a file that checks out: envelope, manifest leaves, and
// the restore when there was one.
func (s *snapScan) clean() bool { return s.err == nil && len(s.bad) == 0 && s.restoreErr == nil }

// scan reads r to its end.
func (sc *snapScanner) scan(r io.Reader) *snapScan {
	res := &snapScan{}
	chunk := sc.chunk
	var sealed [][sha256.Size]byte
	if sc.man != nil {
		chunk = sc.man.ChunkSize
		var err error
		if sealed, err = sc.man.Leaves(); err != nil {
			// Unreachable for a validated manifest; treat as all-bad.
			res.err, res.bad = err, []int{0}
			return res
		}
	}
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	sb, buf := getSnapBuf(chunk, sc.block)
	defer snapBufs.Put(sb)
	var (
		pos     int64 // file offset of buf[0]
		crc     uint32
		head    int          // envelope header length
		end     int64   = -1 // file offset of the CRC32C, once the header parsed
		size    int          // payload length the header declares
		sum     [4]byte      // the stored CRC32C
		leaves  [][sha256.Size]byte
		chunks  int // leaves hashed so far
		deliver = sc.restore != nil
	)
	for {
		n, rerr := io.ReadFull(r, buf)
		eof := rerr == io.EOF || rerr == io.ErrUnexpectedEOF
		if rerr != nil && !eof {
			res.err = fmt.Errorf("persist: read snapshot: %w", rerr)
			res.size = pos + int64(n)
			return res
		}
		b := buf[:n]
		if pos == 0 {
			h, hl, p, err := parseSnapHead(b)
			if err != nil {
				res.err = err
				deliver = false
			} else {
				res.hdr, head, size, end = h, hl, p, int64(hl)+int64(p)
			}
		}
		if end >= 0 {
			if lo, hi := pos, min(pos+int64(n), end); lo < hi {
				crc = crc32.Update(crc, castagnoli, b[:hi-lo])
			}
			for i := max(pos, end); i < min(pos+int64(n), end+4); i++ {
				sum[i-end] = b[i-pos]
			}
		}
		if sc.man != nil {
			leaves = appendMerkleLeaves(leaves[:0], b, chunk, sb.h)
			for i, l := range leaves {
				if c := chunks + i; c >= len(sealed) || l != sealed[c] {
					res.bad = append(res.bad, c)
					deliver = false
				}
			}
			chunks += len(leaves)
		}
		if deliver {
			// The first block is delivered even for an empty payload,
			// so the queue always gets to refuse one.
			lo, hi := max(pos, int64(head)), min(pos+int64(n), end)
			if lo < hi || pos == 0 {
				if err := sc.restore(res.hdr, size, int(lo)-head, b[lo-pos:hi-pos]); err != nil {
					res.restoreErr = err
					deliver = false
				}
			}
		}
		pos += int64(n)
		if eof {
			break
		}
	}
	res.size = pos
	for c := chunks; c < len(sealed); c++ {
		res.bad = append(res.bad, c)
	}
	switch {
	case res.err != nil:
	case pos != end+4:
		res.err = fmt.Errorf("persist: snapshot envelope malformed: %d bytes, header declares %d", pos, end+4)
	case crc != binary.LittleEndian.Uint32(sum[:]):
		res.err = fmt.Errorf("persist: snapshot checksum mismatch")
	}
	return res
}

// scanFile scans the named file through fsys. An error is the open's;
// everything the bytes themselves show is in the scan.
func (sc *snapScanner) scanFile(fsys FS, path string) (*snapScan, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sc.scan(f), nil
}

// DecodeSnapshotFile validates an in-memory envelope and returns its
// header and payload (aliasing b). Any truncation, bit error or format
// mismatch returns an error; the caller treats the file as invalid and
// falls back.
func DecodeSnapshotFile(b []byte) (SnapshotHeader, []byte, error) {
	res := (&snapScanner{}).scan(bytes.NewReader(b))
	if res.err != nil {
		return res.hdr, nil, res.err
	}
	head := snapHeadLen(res.hdr.Kind)
	return res.hdr, b[head : len(b)-4], nil
}

// SnapshotBadChunks compares an in-memory snapshot file's chunk hashes
// against a validated manifest's leaves, returning the indices that
// disagree — including indices present on only one side when the
// lengths differ. Empty means the file matches the manifest root
// bit-for-bit. Anti-entropy repair uses it on a fetched file.
func SnapshotBadChunks(man *Manifest, b []byte) []int {
	return (&snapScanner{man: man}).scan(bytes.NewReader(b)).bad
}
