package engine

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/persist"
)

func checkpointSmall(t *testing.T, shards int) (string, Config) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ckpt")
	cfg := smallConfig(KindCore, shards)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := e.Push(core.Element{Value: uint64(i*13%97 + 1), Meta: uint64(i)}); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	e.Close()
	if err := e.Checkpoint(dir); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	return dir, cfg
}

// TestEngineManifestSealsShards pins the transitive authentication
// chain: ENGINE.json carries one self-checksum per shard MANIFEST.json
// plus an engine root over them, and restore binds each shard's durable
// state to that root before replaying it.
func TestEngineManifestSealsShards(t *testing.T) {
	dir, cfg := checkpointSmall(t, 3)

	m, err := LoadEngineManifest(dir)
	if err != nil {
		t.Fatalf("load manifest: %v", err)
	}
	if len(m.ShardChecksums) != 3 {
		t.Fatalf("shard checksums = %d, want 3", len(m.ShardChecksums))
	}
	if m.Root != EngineRoot(m.ShardChecksums) {
		t.Fatal("engine root does not match shard checksums")
	}
	for i := 0; i < 3; i++ {
		sm, err := persist.LoadManifest(nil, ShardDir(dir, i))
		if err != nil {
			t.Fatalf("shard %d manifest: %v", i, err)
		}
		if sm.Checksum != m.ShardChecksums[i] {
			t.Fatalf("shard %d checksum not sealed by engine manifest", i)
		}
	}

	cfg.RestoreDir = dir
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("restore sealed checkpoint: %v", err)
	}
	r.Close()
}

// TestEngineRestoreRefusesSwappedShardManifest pins the binding check:
// replacing a shard's MANIFEST.json with another shard's (both
// individually valid) must be refused against the engine root.
func TestEngineRestoreRefusesSwappedShardManifest(t *testing.T) {
	dir, cfg := checkpointSmall(t, 3)
	src := filepath.Join(ShardDir(dir, 2), persist.ManifestName)
	dst := filepath.Join(ShardDir(dir, 0), persist.ManifestName)
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.RestoreDir = dir
	_, err = New(cfg)
	var me *persist.ManifestError
	if !errors.As(err, &me) {
		t.Fatalf("restore after shard-manifest swap = %v, want *persist.ManifestError", err)
	}
	if me.Field != "shard_checksums" {
		t.Fatalf("error names field %q, want shard_checksums", me.Field)
	}
}

// TestEngineManifestTornRefusedTyped sweeps torn ENGINE.json prefixes
// (a crash at any byte of a non-atomic write) plus single-byte rot:
// every damaged variant must yield a typed *persist.ManifestError
// naming a field — never a panic, never silent acceptance.
func TestEngineManifestTornRefusedTyped(t *testing.T) {
	dir, cfg := checkpointSmall(t, 2)
	path := filepath.Join(dir, EngineManifestName)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	restore := func() (*Engine, error) {
		c := cfg
		c.RestoreDir = dir
		return New(c)
	}

	for cut := 1; cut < len(orig); cut += 17 {
		if err := os.WriteFile(path, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := restore()
		var me *persist.ManifestError
		if !errors.As(err, &me) {
			t.Fatalf("cut at %d: restore = %v, want *persist.ManifestError", cut, err)
		}
		if me.Field == "" {
			t.Fatalf("cut at %d: manifest error without a field name", cut)
		}
	}

	// Rot one byte inside the root hex string: the self-checksum must
	// catch it and name the field.
	i := strings.Index(string(orig), `"root": "`) + len(`"root": "`)
	mut := append([]byte(nil), orig...)
	if mut[i] != 'f' {
		mut[i] = 'f'
	} else {
		mut[i] = '0'
	}
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = restore()
	var me *persist.ManifestError
	if !errors.As(err, &me) {
		t.Fatalf("rotted root: restore = %v, want *persist.ManifestError", err)
	}
	if me.Field != "root" && me.Field != "checksum" {
		t.Fatalf("rotted root names field %q, want root or checksum", me.Field)
	}

	// A pre-integrity manifest (no seals) still restores.
	legacy := CheckpointManifest{}
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadEngineManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	legacy = *m
	legacy.ShardChecksums, legacy.Root, legacy.Checksum = nil, "", ""
	if err := WriteEngineManifest(dir, legacy); err != nil {
		t.Fatal(err)
	}
	e, err := restore()
	if err != nil {
		t.Fatalf("legacy manifest restore: %v", err)
	}
	e.Close()
}

// TestWALPoisonedReadsTheCheckpointGauges ties WALPoisoned to the gauges
// the shards' checkpoint-time WALs really publish: after a checkpoint
// the registry holds one poisoned gauge per shard — the WALs found the
// ones SetHooks bound, they did not register a second set — and raising
// any of them is what WALPoisoned reports.
func TestWALPoisonedReadsTheCheckpointGauges(t *testing.T) {
	const shards = 3
	e, err := New(smallConfig(KindCore, shards))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e.SetHooks(Hooks{Metrics: reg, MetricsPrefix: "d_persist"})
	if err := e.Push(core.Element{Value: 1}); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if err := e.Checkpoint(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if _, ok := snap.Counters["d_persist_shard0_wal_records_total"]; !ok {
		t.Fatal("the checkpoint's WAL did not instrument into Hooks.Metrics")
	}
	var gauges []string
	for name := range snap.Gauges {
		if strings.HasSuffix(name, "_wal_poisoned") {
			gauges = append(gauges, name)
		}
	}
	if len(gauges) != shards {
		t.Fatalf("poisoned gauges after a checkpoint: %v, want %d", gauges, shards)
	}
	if e.WALPoisoned() {
		t.Fatal("poisoned after a clean checkpoint")
	}
	for _, name := range gauges {
		reg.Gauge(name).Set(1)
		if !e.WALPoisoned() {
			t.Fatalf("WALPoisoned does not read %s", name)
		}
		reg.Gauge(name).Set(0)
	}
}
