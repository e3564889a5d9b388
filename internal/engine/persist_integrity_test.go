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
	cfg := smallConfig(shards)
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

// fourKindManifest is ENGINE.json byte for byte as the engine that could
// serve four queue kinds wrote it for checkpointSmall(t, 2), the retired
// "kind" and "cap" fields included. That engine routed pushes by rank
// band ("routing": 1, 16-bit ranks), so every value put all 60 elements
// on shard 0.
const fourKindManifest = `{
  "schema": "bmw-engine-checkpoint/v1",
  "shards": 2,
  "kind": "core",
  "order": 2,
  "levels": 6,
  "cap": 4094,
  "routing": 1,
  "rank_bits": 16,
  "shard_checksums": [
    "ca85729f31daff315d455854059fa495e26eb73279d91cfca9ba24a8195d004d",
    "771bda98c2bcffdfdeb00ca4deb470bbf5de06595ad81e36a4565833b1b7553e"
  ],
  "root": "0e52da0c813a7b46db7b412c4d3abf1cfd86c0df06ea02a7388a99b16a7e8f88",
  "checksum": "c61ddf03dd9d36390b6116b8380e3bd32f77d8070a5a9aae9f30329878310076"
}
`

// leastCountManifest is what the engine writes today for the same
// fan-out: the retired routing slots carry LegacyRouting and
// LegacyRankBits, the defaults of a bmwd that still read them.
const leastCountManifest = `{
  "schema": "bmw-engine-checkpoint/v1",
  "shards": 2,
  "kind": "core",
  "order": 2,
  "levels": 6,
  "cap": 4094,
  "routing": 0,
  "rank_bits": 30,
  "shard_checksums": [
    "ca85729f31daff315d455854059fa495e26eb73279d91cfca9ba24a8195d004d",
    "771bda98c2bcffdfdeb00ca4deb470bbf5de06595ad81e36a4565833b1b7553e"
  ],
  "root": "0e52da0c813a7b46db7b412c4d3abf1cfd86c0df06ea02a7388a99b16a7e8f88",
  "checksum": "6f294b4002935e867c4f9d1cc21ecff5184d5077c80c44e0c11dad5ed319b5c1"
}
`

// TestFourKindCheckpointRestores pins checkpoint compatibility across the
// removal of the simulator kinds and of push routing. ApplyReplica
// rebuilds the rank-routed engine's placement of checkpointSmall's
// pushes, and the checkpoint of it seals the same shard manifests — so
// the same snapshot and WAL bytes — as fourKindManifest; only the
// retired routing slots differ. That manifest, and the same fan-out
// labelled hash-routed, restore and drain exactly: restore ignores the
// routing slots.
func TestFourKindCheckpointRestores(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	cfg := smallConfig(2)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := make([]Result, 1)
	for i := 0; i < 60; i++ {
		if err := e.ApplyReplica(0, []Op{PushOp(core.Element{Value: uint64(i*13%97 + 1), Meta: uint64(i)})}, res); err != nil || res[0].Err != nil {
			t.Fatalf("push %d: %v %v", i, err, res[0].Err)
		}
	}
	e.Close()
	if err := e.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, EngineManifestName)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != leastCountManifest {
		t.Fatalf("ENGINE.json differs from the pinned bytes:\n%s", got)
	}

	parent, err := DecodeEngineManifest("four-kind", []byte(fourKindManifest))
	if err != nil {
		t.Fatalf("four-kind manifest: %v", err)
	}
	if parent.Kind != "core" || parent.Cap != 4094 {
		t.Fatalf("four-kind manifest decoded kind %q cap %d", parent.Kind, parent.Cap)
	}
	hashRouted := *parent
	hashRouted.Routing = 0
	if hashRouted.Checksum, err = EngineManifestChecksum(hashRouted); err != nil {
		t.Fatal(err)
	}
	for _, m := range []CheckpointManifest{*parent, hashRouted} {
		if err := WriteEngineManifest(dir, m); err != nil {
			t.Fatal(err)
		}
		if m.Routing == 1 {
			if b, _ := os.ReadFile(path); string(b) != fourKindManifest {
				t.Fatalf("rewritten four-kind manifest differs:\n%s", b)
			}
		}
		c := cfg
		c.RestoreDir = dir
		r, err := New(c)
		if err != nil {
			t.Fatalf("routing %d: restore: %v", m.Routing, err)
		}
		// The pushes were value i*13%97+1 with meta i: 60 distinct values
		// in 1..97, so the drain order is fixed.
		metaOf := map[uint64]uint64{}
		for i := uint64(0); i < 60; i++ {
			metaOf[i*13%97+1] = i
		}
		prev := uint64(0)
		for n := 0; n < 60; n++ {
			el, err := r.Pop()
			if err != nil {
				t.Fatalf("routing %d: pop %d: %v", m.Routing, n, err)
			}
			if meta, ok := metaOf[el.Value]; !ok || meta != el.Meta || el.Value <= prev {
				t.Fatalf("routing %d: pop %d = %+v after %d", m.Routing, n, el, prev)
			}
			prev = el.Value
		}
		if r.Len() != 0 {
			t.Fatalf("routing %d: %d element(s) left after the drain", m.Routing, r.Len())
		}
		r.Close()
	}
}

// TestManifestNamingSimulatorKindRefused: a sealed fan-out whose
// manifest names a queue kind other than the core tree — written when
// the engine could serve one — is refused with a typed manifest error
// on the kind field, before any shard is read.
func TestManifestNamingSimulatorKindRefused(t *testing.T) {
	for _, kind := range []string{"pifo", "rbmw", "rpubmw"} {
		t.Run(kind, func(t *testing.T) {
			dir, cfg := checkpointSmall(t, 2)
			m, err := LoadEngineManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			m.Kind = kind
			if m.Checksum, err = EngineManifestChecksum(*m); err != nil {
				t.Fatal(err)
			}
			if err := WriteEngineManifest(dir, *m); err != nil {
				t.Fatal(err)
			}
			cfg.RestoreDir = dir
			_, err = New(cfg)
			var me *persist.ManifestError
			if !errors.As(err, &me) || me.Field != "kind" {
				t.Fatalf("restore = %v, want *persist.ManifestError on kind", err)
			}
		})
	}
}

// TestWALPoisonedReadsTheCheckpointGauges ties WALPoisoned to the gauges
// the shards' checkpoint-time WALs really publish: after a checkpoint
// the registry holds one poisoned gauge per shard — the WALs found the
// ones SetHooks bound, they did not register a second set — and raising
// any of them is what WALPoisoned reports.
func TestWALPoisonedReadsTheCheckpointGauges(t *testing.T) {
	const shards = 3
	e, err := New(smallConfig(shards))
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
