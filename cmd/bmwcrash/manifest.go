package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/persist"
)

// manifestTrials is the kill-point family for the engine checkpoint
// manifest itself: each trial simulates a crash inside the ENGINE.json
// write — a torn prefix, a rotted byte, or a crash between the tmp
// write and the rename — and requires the restore path to refuse the
// damaged manifest with a typed *persist.ManifestError naming the bad
// field. A decode panic, an untyped error, or a silent restore from a
// half-written manifest is a divergence. The tmp-left-behind case must
// restore cleanly: the rename never happened, so the previous sealed
// manifest is still the published one.
func manifestTrials(root string, kills int, seed int64) (int, error) {
	dir := filepath.Join(root, "ckpt")
	cfg := engine.Config{Shards: 2, Order: 2, Levels: 6}
	e, err := engine.New(cfg)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 120; i++ {
		_ = e.Push(core.Element{Value: uint64(rng.Intn(1 << 16)), Meta: uint64(i)})
	}
	e.Close()
	if err := e.Checkpoint(dir); err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	manPath := filepath.Join(dir, engine.EngineManifestName)
	pristine, err := os.ReadFile(manPath)
	if err != nil {
		return 0, err
	}
	if len(pristine) < 4 {
		return 0, fmt.Errorf("implausibly small manifest (%d bytes)", len(pristine))
	}

	failed := 0
	for trial := 0; trial < kills; trial++ {
		var mode string
		tmp := manPath + ".tmp"
		switch trial % 3 {
		case 0:
			// Killed mid-write: a torn prefix. The bound excludes the
			// final "}\n" so the prefix can never be complete JSON.
			cut := 1 + rng.Intn(len(pristine)-2)
			mode = fmt.Sprintf("torn at %d/%d", cut, len(pristine))
			err = os.WriteFile(manPath, pristine[:cut], 0o644)
		case 1:
			b := append([]byte(nil), pristine...)
			off := rng.Intn(len(b))
			b[off] ^= 0xff
			mode = fmt.Sprintf("rotted byte %d", off)
			err = os.WriteFile(manPath, b, 0o644)
		default:
			// Killed between the tmp write and the rename: the published
			// manifest is untouched, the half-written tmp is litter.
			cut := 1 + rng.Intn(len(pristine)-2)
			mode = fmt.Sprintf("tmp left at %d/%d", cut, len(pristine))
			err = os.WriteFile(tmp, pristine[:cut], 0o644)
		}
		if err != nil {
			return failed, err
		}

		if diag := manifestRestoreCheck(dir, cfg, trial%3 == 2); diag != "" {
			failed++
			fmt.Printf("manifest trial %d (%s) DIVERGED: %s\n", trial, mode, diag)
		}

		if err := os.WriteFile(manPath, pristine, 0o644); err != nil {
			return failed, err
		}
		os.Remove(tmp)
	}
	return failed, nil
}

// manifestRestoreCheck attempts a restore from dir and classifies the
// outcome. wantClean is the tmp-left-behind case; every other damage
// mode must be refused with a typed, field-naming manifest error.
func manifestRestoreCheck(dir string, cfg engine.Config, wantClean bool) (diag string) {
	defer func() {
		if r := recover(); r != nil {
			diag = fmt.Sprintf("restore panicked: %v", r)
		}
	}()
	cfg.RestoreDir = dir
	r, err := engine.New(cfg)
	if err == nil {
		r.Close()
		if wantClean {
			return ""
		}
		return "damaged manifest restored without complaint"
	}
	if wantClean {
		return fmt.Sprintf("intact manifest refused: %v", err)
	}
	var me *persist.ManifestError
	if !errors.As(err, &me) {
		return fmt.Sprintf("untyped refusal: %v", err)
	}
	if me.Field == "" {
		return fmt.Sprintf("manifest error names no field: %v", me)
	}
	return ""
}
