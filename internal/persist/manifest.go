// Checkpoint manifest: one JSON document per persistence directory
// binding together everything a verifier needs to authenticate the
// directory's durable state — the WAL's sealed chain head, the current
// snapshot's Merkle root and leaf hashes, and the chunking parameters —
// under a self-checksum, so a single trusted 64-hex-digit value (the
// manifest checksum) transitively authenticates every byte on disk.
//
// The manifest is written last in the checkpoint sequence (WAL sync →
// snapshot publish → manifest), so a crash can only ever leave a
// manifest that is *stale*, never one that promises state that was not
// yet durable. Verification therefore treats the manifest as a sealed
// prefix claim: the chain head must match the recomputed chain at the
// manifest's record count, even if the log has since grown.

package persist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
)

// ManifestName is the per-directory manifest file name.
const ManifestName = "MANIFEST.json"

// ManifestSchema identifies the manifest document format.
const ManifestSchema = "bmw-persist-manifest/v1"

// Manifest is the on-disk checkpoint manifest document.
type Manifest struct {
	Schema string `json:"schema"`
	// Kind is the queue implementation that owns the directory.
	Kind string `json:"kind"`
	// WALRecords and ChainHead seal the log prefix this checkpoint
	// covers: ChainHead is the hex sha256 chain head after record
	// WALRecords. ChainEvery is the writer's chain-point interval,
	// which makes record byte offsets computable.
	WALRecords uint64 `json:"wal_records"`
	ChainEvery int    `json:"chain_every"`
	ChainHead  string `json:"wal_chain_head"`
	// Snapshot identity plus its content authentication: the Merkle
	// root and per-chunk leaf hashes over the encoded snapshot file.
	SnapshotSeq     uint64   `json:"snapshot_seq"`
	SnapshotVersion uint32   `json:"snapshot_version"`
	SnapshotLSN     uint64   `json:"snapshot_lsn"`
	SnapshotBytes   int64    `json:"snapshot_bytes"`
	ChunkSize       int      `json:"chunk_size"`
	SnapshotRoot    string   `json:"snapshot_root"`
	SnapshotLeaves  []string `json:"snapshot_leaves"`
	// Checksum is the self-checksum: hex sha256 over the canonical JSON
	// of the manifest with Checksum itself empty.
	Checksum string `json:"checksum"`

	// leaves is SnapshotLeaves decoded, kept by validate and
	// NewManifest so a loaded manifest decodes its hex once.
	leaves [][sha256.Size]byte
}

// ErrManifest is the sentinel every manifest refusal wraps.
var ErrManifest = errors.New("persist: invalid checkpoint manifest")

// ManifestError names the exact field a manifest was refused on — the
// typed alternative to a decode panic or a bare "invalid manifest".
type ManifestError struct {
	Path   string
	Field  string
	Reason string
}

func (e *ManifestError) Error() string {
	return fmt.Sprintf("persist: manifest %s: field %q: %s", e.Path, e.Field, e.Reason)
}

// Unwrap lets errors.Is(err, ErrManifest) match.
func (e *ManifestError) Unwrap() error { return ErrManifest }

// ManifestChecksum computes the self-checksum over the canonical JSON
// with the Checksum field cleared.
func ManifestChecksum(m Manifest) (string, error) {
	m.Checksum = ""
	b, err := json.Marshal(m)
	if err != nil {
		return "", fmt.Errorf("persist: marshal manifest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// hexHash decodes a hex sha256 field, reporting refusals by field name.
func hexHash(path, field, v string) ([sha256.Size]byte, error) {
	var out [sha256.Size]byte
	b, err := hex.DecodeString(v)
	if err != nil {
		return out, &ManifestError{Path: path, Field: field, Reason: "not hex: " + err.Error()}
	}
	if len(b) != sha256.Size {
		return out, &ManifestError{Path: path, Field: field, Reason: fmt.Sprintf("hash length %d, want %d", len(b), sha256.Size)}
	}
	copy(out[:], b)
	return out, nil
}

// validate structurally checks a decoded manifest, naming the first bad
// field. It does not touch the WAL or snapshot files.
func (m *Manifest) validate(path string) error {
	if m.Schema != ManifestSchema {
		return &ManifestError{Path: path, Field: "schema", Reason: fmt.Sprintf("%q, want %q", m.Schema, ManifestSchema)}
	}
	if m.Kind == "" {
		return &ManifestError{Path: path, Field: "kind", Reason: "empty"}
	}
	if m.ChainEvery <= 0 {
		return &ManifestError{Path: path, Field: "chain_every", Reason: fmt.Sprintf("%d, must be positive", m.ChainEvery)}
	}
	if _, err := hexHash(path, "wal_chain_head", m.ChainHead); err != nil {
		return err
	}
	if m.SnapshotSeq != 0 {
		if m.ChunkSize <= 0 {
			return &ManifestError{Path: path, Field: "chunk_size", Reason: fmt.Sprintf("%d, must be positive", m.ChunkSize)}
		}
		if m.SnapshotBytes < 0 {
			return &ManifestError{Path: path, Field: "snapshot_bytes", Reason: "negative"}
		}
		if m.SnapshotLSN > m.WALRecords {
			return &ManifestError{Path: path, Field: "snapshot_lsn",
				Reason: fmt.Sprintf("%d exceeds wal_records %d", m.SnapshotLSN, m.WALRecords)}
		}
		wantLeaves := int((m.SnapshotBytes + int64(m.ChunkSize) - 1) / int64(m.ChunkSize))
		if len(m.SnapshotLeaves) != wantLeaves {
			return &ManifestError{Path: path, Field: "snapshot_leaves",
				Reason: fmt.Sprintf("%d leaves for %d bytes in %d-byte chunks, want %d", len(m.SnapshotLeaves), m.SnapshotBytes, m.ChunkSize, wantLeaves)}
		}
		if _, err := hexHash(path, "snapshot_root", m.SnapshotRoot); err != nil {
			return err
		}
		leaves, err := decodeLeaves(m.SnapshotLeaves)
		if err != nil {
			return err
		}
		root := MerkleRoot(leaves)
		if hex.EncodeToString(root[:]) != m.SnapshotRoot {
			return &ManifestError{Path: path, Field: "snapshot_root", Reason: "root does not match snapshot_leaves"}
		}
		m.leaves = leaves
	}
	want, err := ManifestChecksum(*m)
	if err != nil {
		return &ManifestError{Path: path, Field: "checksum", Reason: err.Error()}
	}
	if m.Checksum != want {
		return &ManifestError{Path: path, Field: "checksum",
			Reason: fmt.Sprintf("%.12s, want %.12s", m.Checksum, want)}
	}
	return nil
}

// Leaves returns the manifest's leaf hashes, decoded.
func (m *Manifest) Leaves() ([][sha256.Size]byte, error) {
	if m.leaves != nil || len(m.SnapshotLeaves) == 0 {
		return m.leaves, nil
	}
	return decodeLeaves(m.SnapshotLeaves)
}

// decodeLeaves decodes hex leaf hashes.
func decodeLeaves(hexLeaves []string) ([][sha256.Size]byte, error) {
	leaves := make([][sha256.Size]byte, 0, len(hexLeaves))
	for i, s := range hexLeaves {
		h, err := hexHash("", fmt.Sprintf("snapshot_leaves[%d]", i), s)
		if err != nil {
			return nil, err
		}
		leaves = append(leaves, h)
	}
	return leaves, nil
}

// Head decodes the manifest's sealed WAL chain head.
func (m *Manifest) Head() (ChainState, error) {
	h, err := hexHash("", "wal_chain_head", m.ChainHead)
	if err != nil {
		return ChainState{}, err
	}
	return ChainState{LSN: m.WALRecords, Head: h}, nil
}

// NewManifest builds a manifest for a just-written checkpoint from the
// snapshot file's length and Merkle leaves, as writeSnapshot returns
// them, and stamps its self-checksum.
func NewManifest(chain ChainState, chainEvery int, h SnapshotHeader, size int64, leaves [][sha256.Size]byte, chunkSize int) (Manifest, error) {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	root := MerkleRoot(leaves)
	m := Manifest{
		Schema:          ManifestSchema,
		Kind:            h.Kind,
		WALRecords:      chain.LSN,
		ChainEvery:      chainEvery,
		ChainHead:       hex.EncodeToString(chain.Head[:]),
		SnapshotSeq:     h.Seq,
		SnapshotVersion: h.Version,
		SnapshotLSN:     h.LSN,
		SnapshotBytes:   size,
		ChunkSize:       chunkSize,
		SnapshotRoot:    hex.EncodeToString(root[:]),
		SnapshotLeaves:  make([]string, 0, len(leaves)),
		leaves:          leaves,
	}
	for _, l := range leaves {
		m.SnapshotLeaves = append(m.SnapshotLeaves, hex.EncodeToString(l[:]))
	}
	sum, err := ManifestChecksum(m)
	if err != nil {
		return m, err
	}
	m.Checksum = sum
	return m, nil
}

// LoadManifest reads and fully validates dir's manifest. A missing file
// returns fs.ErrNotExist unwrapped (legacy directories have none); any
// other failure is a *ManifestError naming the offending field.
func LoadManifest(fsys FS, dir string) (*Manifest, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	path := join(dir, ManifestName)
	b, err := fsys.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		return nil, &ManifestError{Path: path, Field: "(file)", Reason: err.Error()}
	}
	return DecodeManifest(path, b)
}

// DecodeManifest parses and validates manifest bytes. Torn or truncated
// JSON is a typed refusal, never a panic.
func DecodeManifest(path string, b []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, &ManifestError{Path: path, Field: "(json)", Reason: err.Error()}
	}
	if err := m.validate(path); err != nil {
		return nil, err
	}
	return &m, nil
}

// WriteManifest encodes m and writes it to dir, tmp+rename unless
// nonAtomic (the crash harness tears manifests through that mode).
func WriteManifest(fsys FS, dir string, m Manifest, nonAtomic bool) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("persist: marshal manifest: %w", err)
	}
	b = append(b, '\n')
	final := join(dir, ManifestName)
	name := final
	if !nonAtomic {
		name = final + ".tmp"
	}
	f, err := fsys.Create(name)
	if err != nil {
		return fmt.Errorf("persist: create manifest: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return fmt.Errorf("persist: write manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("persist: sync manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: close manifest: %w", err)
	}
	if !nonAtomic {
		if err := fsys.Rename(name, final); err != nil {
			return fmt.Errorf("persist: publish manifest: %w", err)
		}
	}
	return nil
}
