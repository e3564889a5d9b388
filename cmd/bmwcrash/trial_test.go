package main

import (
	"math/rand"
	"path/filepath"
	"testing"
)

// TestKillTrialsRecoverBitIdentically is the in-tree smoke version of
// the harness: a handful of kill points must all recover with
// bit-identical drains.
func TestKillTrialsRecoverBitIdentically(t *testing.T) {
	t.Run("core", func(t *testing.T) {
		root := t.TempDir()
		cfg := config{m: 4, l: 3, ops: 500, ckptEvery: 32, batch: 4}
		total, err := calibrate(filepath.Join(root, "cal"), cfg, 11)
		if err != nil {
			t.Fatal(err)
		}
		krng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 6; trial++ {
			tcfg := cfg
			tcfg.nonAtomic = trial%2 == 1
			budget := 1 + krng.Int63n(total)
			dir := filepath.Join(root, "kill", string(rune('a'+trial)))
			diag, err := killTrial(dir, tcfg, 11, budget, krng.Int63())
			if err != nil {
				t.Fatalf("trial %d (budget %d): %v", trial, budget, err)
			}
			if diag != "" {
				t.Fatalf("trial %d (budget %d) diverged: %s", trial, budget, diag)
			}
		}
	})
}

// TestKillTrialBudgetSweep pins the tiniest budgets, which crash inside
// the very first WAL record or the directory bootstrap.
func TestKillTrialBudgetSweep(t *testing.T) {
	cfg := config{m: 2, l: 2, ops: 120, ckptEvery: 16, batch: 2}
	for budget := int64(1); budget <= 40; budget += 13 {
		dir := filepath.Join(t.TempDir(), "d")
		diag, err := killTrial(dir, cfg, 3, budget, budget*7+1)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if diag != "" {
			t.Fatalf("budget %d diverged: %s", budget, diag)
		}
	}
}

// TestManifestTrials runs the manifest kill-point family through all
// three damage modes twice (torn prefix, rotted byte, tmp file left
// behind): every damaged ENGINE.json must be refused typed and the
// tmp-left-behind case must restore cleanly.
func TestManifestTrials(t *testing.T) {
	failed, err := manifestTrials(t.TempDir(), 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Fatalf("%d refusal failure(s), want 0", failed)
	}
}
