package engine

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestCheckpointShardFanOut checkpoints a four-shard engine, whose
// shards stream their snapshots at once, and restores it; then it
// restores the directory again and checkpoints that engine over the
// first checkpoint (so retirement runs). After each checkpoint every
// restored shard must drain exactly what its original held.
func TestCheckpointShardFanOut(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	cfg := smallConfig(4)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := e.Push(core.Element{Value: uint64(i * 7919 % 1009), Meta: uint64(i)}); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := e.Pop(); err != nil {
			t.Fatalf("pop %d: %v", i, err)
		}
	}
	cfg.RestoreDir = dir
	for round := 0; round < 2; round++ {
		e.Close()
		if err := e.Checkpoint(dir); err != nil {
			t.Fatalf("round %d: checkpoint: %v", round, err)
		}
		r, err := New(cfg)
		if err != nil {
			t.Fatalf("round %d: restore: %v", round, err)
		}
		r.Close()
		for i := 0; i < cfg.Shards; i++ {
			want, err := e.ShardDrain(i)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.ShardDrain(i)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("round %d shard %d: restored %d elements, checkpointed %d", round, i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("round %d shard %d pop %d: restored %+v, checkpointed %+v", round, i, j, got[j], want[j])
				}
			}
		}
		if e, err = New(cfg); err != nil {
			t.Fatalf("round %d: second restore: %v", round, err)
		}
	}
	e.Close()
}

// TestCheckpointUnwritableShard: a shard whose directory cannot be
// created fails the checkpoint with an error naming that shard, while
// the others checkpoint beside it, and no new ENGINE.json is written.
func TestCheckpointUnwritableShard(t *testing.T) {
	dir, cfg := checkpointSmall(t, 3)
	before, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := e.Push(core.Element{Value: uint64(i), Meta: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	bad := ShardDir(dir, 1)
	if err := os.RemoveAll(bad); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = e.Checkpoint(dir)
	if err == nil {
		t.Fatal("checkpoint with an unwritable shard directory succeeded")
	}
	if msg := err.Error(); !strings.Contains(msg, "shard 1 ") || strings.Contains(msg, "shard 0 ") || strings.Contains(msg, "shard 2 ") {
		t.Fatalf("error %q, want one naming shard 1 alone", msg)
	}
	after, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatal("a failed checkpoint rewrote ENGINE.json")
	}
}
