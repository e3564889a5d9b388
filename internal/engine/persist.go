package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/persist"
)

// manifestName is the engine-level checkpoint manifest inside the
// fan-out directory; the per-shard state lives in shard-<i>/ subtrees
// owned by internal/persist.
const manifestName = "ENGINE.json"

// EngineManifestName exposes the manifest file name to the integrity
// tooling (anti-entropy repair, the bit-rot harness).
const EngineManifestName = manifestName

// CheckpointManifest pins the configuration a checkpoint fan-out was
// written with — restore refuses a mismatched engine rather than
// loading shards into the wrong shape — and, since the
// integrity extension, binds every shard's own MANIFEST.json
// self-checksum under one engine root and a self-checksum, so a single
// trusted value authenticates the entire fan-out transitively: engine
// root → shard manifest checksums → WAL chain heads + snapshot Merkle
// roots → every byte on disk.
type CheckpointManifest struct {
	Schema string `json:"schema"`
	Shards int    `json:"shards"`
	// Kind, Cap, Routing and RankBits are retired; see manifestKind.
	Kind     string `json:"kind"`
	Order    int    `json:"order,omitempty"`
	Levels   int    `json:"levels,omitempty"`
	Cap      int    `json:"cap,omitempty"`
	Routing  int    `json:"routing"`
	RankBits int    `json:"rank_bits"`
	// ShardChecksums[i] is shard i's persist MANIFEST.json
	// self-checksum; Root is the sha256 over all of them. Empty on
	// legacy (pre-integrity) checkpoints.
	ShardChecksums []string `json:"shard_checksums,omitempty"`
	Root           string   `json:"root,omitempty"`
	// Checksum is the self-checksum: hex sha256 over the canonical
	// JSON with Checksum cleared.
	Checksum string `json:"checksum,omitempty"`
}

const manifestSchema = "bmw-engine-checkpoint/v1"

// The v1 manifest still carries the fields of the engines that could
// serve four queue kinds and route pushes by flow hash or rank band, so
// fan-outs written by them keep their checksum and restore, and they
// can restore ours: kind is always manifestKind; cap — which only ever
// sized the PIFO kind — is always LegacyCap, the value every
// configuration normalised it to; routing and rank_bits are always
// LegacyRouting and LegacyRankBits, bmwd's old defaults, so an older
// bmwd started with default flags accepts our fan-out. Restore ignores
// cap, routing and rank_bits and refuses a manifest naming another kind.
const (
	manifestKind = "core"
	// LegacyCap, LegacyRouting and LegacyRankBits are also what the
	// replication hello carries in the same retired slots. Nothing is
	// sized or routed by them.
	LegacyCap      = 4094
	LegacyRouting  = 0
	LegacyRankBits = 30
)

// EngineManifestSchema is the schema string exported for tooling that
// assembles checkpoint fan-outs outside an Engine (the bit-rot
// harness).
const EngineManifestSchema = manifestSchema

// manifestConfig is the comparable projection of the configuration
// fields (everything the integrity extension does not cover).
type manifestConfig struct {
	Schema        string
	Shards        int
	Order, Levels int
}

func (m CheckpointManifest) config() manifestConfig {
	return manifestConfig{Schema: m.Schema, Shards: m.Shards, Order: m.Order, Levels: m.Levels}
}

func (e *Engine) manifest() CheckpointManifest {
	return CheckpointManifest{
		Schema:   manifestSchema,
		Shards:   len(e.shards),
		Kind:     manifestKind,
		Order:    e.cfg.Order,
		Levels:   e.cfg.Levels,
		Cap:      LegacyCap,
		Routing:  LegacyRouting,
		RankBits: LegacyRankBits,
	}
}

// EngineManifestChecksum computes the manifest self-checksum.
func EngineManifestChecksum(m CheckpointManifest) (string, error) {
	m.Checksum = ""
	b, err := json.Marshal(m)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// EngineRoot folds the per-shard manifest checksums into the one value
// that authenticates the whole checkpoint.
func EngineRoot(shardSums []string) string {
	h := sha256.New()
	h.Write([]byte("bmw-engine-root/v1"))
	for _, s := range shardSums {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// DecodeEngineManifest parses and validates ENGINE.json bytes. Any
// refusal — torn JSON from a crash mid-write, a rotted field, a
// checksum or root mismatch — is a typed *persist.ManifestError naming
// the offending field, never a decode panic. Legacy manifests (no
// integrity fields) validate their configuration only.
func DecodeEngineManifest(path string, b []byte) (*CheckpointManifest, error) {
	var m CheckpointManifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, &persist.ManifestError{Path: path, Field: "(json)", Reason: err.Error()}
	}
	if m.Schema != manifestSchema {
		return nil, &persist.ManifestError{Path: path, Field: "schema",
			Reason: fmt.Sprintf("%q, want %q", m.Schema, manifestSchema)}
	}
	if m.Shards <= 0 {
		return nil, &persist.ManifestError{Path: path, Field: "shards",
			Reason: fmt.Sprintf("%d, must be positive", m.Shards)}
	}
	if m.Kind != manifestKind {
		return nil, &persist.ManifestError{Path: path, Field: "kind",
			Reason: fmt.Sprintf("%q, want %q: only the core tree is served", m.Kind, manifestKind)}
	}
	if m.Checksum == "" && len(m.ShardChecksums) == 0 && m.Root == "" {
		return &m, nil // legacy checkpoint: nothing sealing it
	}
	if len(m.ShardChecksums) != m.Shards {
		return nil, &persist.ManifestError{Path: path, Field: "shard_checksums",
			Reason: fmt.Sprintf("%d entries for %d shards", len(m.ShardChecksums), m.Shards)}
	}
	if m.Root != EngineRoot(m.ShardChecksums) {
		return nil, &persist.ManifestError{Path: path, Field: "root",
			Reason: "does not match shard_checksums"}
	}
	want, err := EngineManifestChecksum(m)
	if err != nil {
		return nil, &persist.ManifestError{Path: path, Field: "checksum", Reason: err.Error()}
	}
	if m.Checksum != want {
		return nil, &persist.ManifestError{Path: path, Field: "checksum",
			Reason: fmt.Sprintf("%.12s, want %.12s", m.Checksum, want)}
	}
	return &m, nil
}

// LoadEngineManifest reads and validates dir's ENGINE.json. A missing
// file returns os.ErrNotExist unwrapped.
func LoadEngineManifest(dir string) (*CheckpointManifest, error) {
	path := filepath.Join(dir, manifestName)
	b, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		return nil, &persist.ManifestError{Path: path, Field: "(file)", Reason: err.Error()}
	}
	return DecodeEngineManifest(path, b)
}

// VerifyBinding checks that every shard's MANIFEST.json under dir still
// carries exactly the self-checksum this manifest sealed. A legacy
// (unsealed) manifest binds nothing and passes.
func (m *CheckpointManifest) VerifyBinding(dir string) error {
	if len(m.ShardChecksums) != m.Shards {
		return nil
	}
	for i, sealed := range m.ShardChecksums {
		sm, err := persist.LoadManifest(nil, ShardDir(dir, i))
		if err != nil {
			return fmt.Errorf("engine: shard %d manifest: %w", i, err)
		}
		if sm.Checksum != sealed {
			return &persist.ManifestError{
				Path: filepath.Join(dir, manifestName), Field: "shard_checksums",
				Reason: fmt.Sprintf("shard %d manifest checksum %.12s, sealed %.12s", i, sm.Checksum, sealed),
			}
		}
	}
	return nil
}

// ShardDir returns the fan-out subdirectory of shard i.
func ShardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
}

// shardMetricsPrefix is where shard i's persist manager publishes.
func (h *Hooks) shardMetricsPrefix(i int) string {
	prefix := h.MetricsPrefix
	if prefix == "" {
		prefix = "persist"
	}
	return fmt.Sprintf("%s_shard%d", prefix, i)
}

// WALPoisoned reports whether any shard's checkpoint log has latched a
// permanent write failure, i.e. the durable state is not to be trusted.
// It reads the gauges the persist managers publish into Hooks.Metrics
// and is false without one.
func (e *Engine) WALPoisoned() bool {
	h := e.hooks.Load()
	if h == nil {
		return false
	}
	for _, g := range h.walPoisoned {
		if g.Value() != 0 {
			return true
		}
	}
	return false
}

// Checkpoint writes a per-shard checkpoint fan-out under dir: an
// engine manifest plus one persist snapshot directory per shard. The
// engine must be Closed first — checkpointing requires exclusive
// access to every shard queue. It is the graceful-drain path cmd/bmwd
// takes on SIGTERM, reusing the same snapshot envelope and recovery
// machinery as the single-queue persistence subsystem.
//
// The shards checkpoint at once, one goroutine each; a failure names
// its shard, and failures join in shard order. The engine manifest is
// written last and by tmp+rename, and only when every shard succeeded:
// every shard's own manifest (chain head, Merkle root) is durable
// before the engine root that binds them is published.
func (e *Engine) Checkpoint(dir string) error {
	if !e.closed.Load() {
		return errors.New("engine: Checkpoint before Close")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sums := make([]string, len(e.shards))
	errs := make([]error, len(e.shards))
	e.eachShard(func(s *shard) { sums[s.id], errs[s.id] = e.checkpointShard(dir, s) })
	if err := errors.Join(errs...); err != nil {
		return err
	}
	man := e.manifest()
	man.ShardChecksums = sums
	man.Root = EngineRoot(man.ShardChecksums)
	sum, err := EngineManifestChecksum(man)
	if err != nil {
		return err
	}
	man.Checksum = sum
	return WriteEngineManifest(dir, man)
}

// eachShard runs fn on every shard at once, one goroutine each, and
// returns when all are done. Checkpoint and restore stream each shard's
// snapshot on its own goroutine.
func (e *Engine) eachShard(fn func(s *shard)) {
	var wg sync.WaitGroup
	for _, s := range e.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(s)
		}()
	}
	wg.Wait()
}

// checkpointShard writes shard s's persist directory under dir and
// returns its manifest's self-checksum.
func (e *Engine) checkpointShard(dir string, s *shard) (string, error) {
	popts := persist.Options{}
	if h := e.hooks.Load(); h != nil {
		popts.Flight = h.Flight
		if h.Metrics != nil {
			popts.Metrics = h.Metrics
			popts.MetricsPrefix = h.shardMetricsPrefix(s.id)
		}
	}
	m, err := persist.Attach(ShardDir(dir, s.id), s.q, popts)
	if err != nil {
		return "", fmt.Errorf("engine: shard %d attach: %w", s.id, err)
	}
	if err := m.Checkpoint(); err != nil {
		m.Close()
		return "", fmt.Errorf("engine: shard %d checkpoint: %w", s.id, err)
	}
	if err := m.Close(); err != nil {
		return "", fmt.Errorf("engine: shard %d close: %w", s.id, err)
	}
	return m.Manifest().Checksum, nil
}

// WriteEngineManifest publishes an engine manifest atomically
// (tmp+rename with an fsync in between).
func WriteEngineManifest(dir string, m CheckpointManifest) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	final := filepath.Join(dir, manifestName)
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, final)
}

// restore loads every shard from a checkpoint fan-out written by
// Checkpoint, one goroutine per shard, joining failures in shard order.
// A directory without a manifest is a fresh start. Called from New
// before anything can execute, so it owns the queues.
func (e *Engine) restore(dir string) error {
	m, err := LoadEngineManifest(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	want := e.manifest()
	if m.config() != want.config() {
		return fmt.Errorf("engine: checkpoint config %+v does not match engine config %+v", m.config(), want.config())
	}
	// Bind every shard's durable state to the engine root before
	// restoring from any of it.
	if err := m.VerifyBinding(dir); err != nil {
		return err
	}
	errs := make([]error, len(e.shards))
	e.eachShard(func(s *shard) {
		mgr, _, err := persist.Open(ShardDir(dir, s.id), s.q, persist.Options{})
		if err != nil {
			errs[s.id] = fmt.Errorf("engine: shard %d restore: %w", s.id, err)
			return
		}
		if err := mgr.Close(); err != nil {
			errs[s.id] = fmt.Errorf("engine: shard %d close: %w", s.id, err)
		}
	})
	return errors.Join(errs...)
}
