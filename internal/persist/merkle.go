// Merkle tree over fixed-size file chunks. Snapshots get their leaf
// hashes and root published in the checkpoint manifest, so recovery can
// tell *which chunk* rotted (leaf comparison), and anti-entropy repair
// can check a snapshot fetched from an untrusted peer against the
// locally trusted leaves.
//
// Construction: leaves are sha256(0x00 || chunk); interior nodes are
// sha256(0x01 || left || right). An odd node at any level is paired
// with itself (the duplicate-last rule). The domain-separation
// prefixes prevent a leaf being reinterpreted as an interior node.

package persist

import (
	"crypto/sha256"
	"hash"
	"runtime"
	"slices"
	"sync"
)

// DefaultChunkSize is the snapshot chunking granularity: small enough
// to localise single-sector rot, large enough that the manifest's leaf
// list stays a few hundred entries for typical snapshots.
const DefaultChunkSize = 4096

// merkleEmpty is the root of a zero-byte file (no leaves).
var merkleEmpty = sha256.Sum256([]byte("bmw-merkle-empty/v1"))

// leafPrefix is the leaf hash's domain-separation byte; merkleNode
// writes the interior one, 0x01, itself.
var leafPrefix = []byte{0x00}

func merkleNode(l, r [sha256.Size]byte) [sha256.Size]byte {
	var b [1 + 2*sha256.Size]byte
	b[0] = 0x01
	copy(b[1:], l[:])
	copy(b[1+sha256.Size:], r[:])
	return sha256.Sum256(b[:])
}

// merkleRunChunks is the fewest chunks MerkleLeaves hands one
// goroutine: 128 KiB at the default chunk size, about 60 microseconds
// of hashing with SHA extensions, well above what starting a goroutine
// costs.
const merkleRunChunks = 32

// MerkleLeaves chunks b and hashes each chunk. The final chunk may be
// short; a zero-byte file has no leaves.
func MerkleLeaves(b []byte, chunkSize int) [][sha256.Size]byte {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return appendMerkleLeaves(nil, b, chunkSize, sha256.New())
}

// appendMerkleLeaves appends the leaves of b's chunks to dst, hashing
// with h (reset per chunk). The chunks are split into contiguous runs
// of at least merkleRunChunks, hashed on up to GOMAXPROCS goroutines
// that each take a digest of their own; below two runs the caller
// hashes them all with h. The leaves are the same either way. The
// snapshot stream calls it once per block, so a block must start on a
// chunk boundary of its file.
func appendMerkleLeaves(dst [][sha256.Size]byte, b []byte, chunkSize int, h hash.Hash) [][sha256.Size]byte {
	n := (len(b) + chunkSize - 1) / chunkSize
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	leaves := dst[base:]
	workers := min(runtime.GOMAXPROCS(0), n/merkleRunChunks)
	if workers < 2 {
		hashChunks(h, leaves, b, chunkSize, 0, n)
		return dst
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			hashChunks(sha256.New(), leaves, b, chunkSize, lo, hi)
		}(w*n/workers, (w+1)*n/workers)
	}
	hashChunks(h, leaves, b, chunkSize, 0, n/workers)
	wg.Wait()
	return dst
}

// hashChunks hashes chunks [lo, hi) of b into leaves[lo:hi].
func hashChunks(h hash.Hash, leaves [][sha256.Size]byte, b []byte, chunkSize, lo, hi int) {
	for i := lo; i < hi; i++ {
		h.Reset()
		h.Write(leafPrefix)
		h.Write(b[i*chunkSize : min((i+1)*chunkSize, len(b))])
		h.Sum(leaves[i][:0])
	}
}

// MerkleRoot folds leaves up to the root (duplicate-last pairing).
func MerkleRoot(leaves [][sha256.Size]byte) [sha256.Size]byte {
	if len(leaves) == 0 {
		return merkleEmpty
	}
	level := append([][sha256.Size]byte(nil), leaves...)
	for len(level) > 1 {
		next := level[: 0 : len(level)/2+1]
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, merkleNode(level[i], level[i+1]))
			} else {
				next = append(next, merkleNode(level[i], level[i]))
			}
		}
		level = next
	}
	return level[0]
}
