// bmwcrash is the kill-point crash-recovery harness for the persistence
// subsystem: it runs a seeded workload against the software BMW-Tree
// (the served queue) while a WAL and periodic checkpoints stream to a
// simulated crash disk, kills
// the "process" at a random persisted-byte offset — including mid-WAL-
// record and mid-snapshot — recovers from the torn directory, and
// differentially drains the recovered queue against an uninterrupted
// golden replay of the durable log. Any difference in pop order, any
// invariant-checker failure after recovery, or any durable record that
// was never issued is a reported divergence. A second family kills the
// engine checkpoint-manifest write and checks that every torn or rotted
// manifest is refused typed.
//
// Examples:
//
//	bmwcrash -kills 100
//	bmwcrash -kills 25 -ops 3000 -seed 7
//	bmwcrash -kills 200 -ckpt 32 -batch 8
//
// The run is reproducible from the printed command line: the seed
// drives the workload, the kill-point budgets and the torn-suffix
// lengths.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bmwcrash: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		kills   = flag.Int("kills", 100, "kill trials per family")
		ops     = flag.Int("ops", 1500, "workload steps per run")
		seed    = flag.Int64("seed", 1, "seed for the workload, kill points and torn suffixes")
		m       = flag.Int("m", 4, "tree order")
		l       = flag.Int("l", 3, "tree levels")
		ckpt    = flag.Int("ckpt", 64, "recorded ops between checkpoints")
		batch   = flag.Int("batch", 4, "WAL group-commit threshold")
		scratch = flag.String("dir", "", "scratch directory (default: a fresh temp dir)")
		keep    = flag.Bool("keep", false, "keep trial directories instead of removing them")
	)
	flag.Parse()
	if *kills < 1 || *ops < 1 {
		fatalf("-kills and -ops must be positive")
	}

	root := *scratch
	if root == "" {
		var err error
		root, err = os.MkdirTemp("", "bmwcrash-")
		if err != nil {
			fatalf("scratch dir: %v", err)
		}
		if !*keep {
			defer os.RemoveAll(root)
		}
	}

	fmt.Printf("bmwcrash -kills %d -ops %d -seed %d -m %d -l %d -ckpt %d -batch %d\n",
		*kills, *ops, *seed, *m, *l, *ckpt, *batch)
	fmt.Printf("scratch: %s\n", root)

	pm := &persistMetrics{}
	cfg := config{m: *m, l: *l, ops: *ops, ckptEvery: *ckpt, batch: *batch, metrics: pm}
	calDir := filepath.Join(root, "core-calibrate")
	totalBytes, err := calibrate(calDir, cfg, *seed)
	if err != nil {
		fatalf("calibration: %v", err)
	}
	if totalBytes < 1 {
		fatalf("calibration wrote no bytes")
	}
	if !*keep {
		os.RemoveAll(calDir)
	}

	// The kill budgets and torn-suffix seeds draw from their own stream
	// so -kills does not perturb the workload schedule.
	krng := rand.New(rand.NewSource(*seed ^ 0x9e3779b9))
	divergences := 0
	for trial := 0; trial < *kills; trial++ {
		budget := 1 + krng.Int63n(totalBytes)
		tearSeed := krng.Int63()
		tcfg := cfg
		tcfg.nonAtomic = trial%2 == 1 // exercise torn .snap files too
		dir := filepath.Join(root, fmt.Sprintf("core-kill-%04d", trial))
		diag, err := killTrial(dir, tcfg, *seed, budget, tearSeed)
		if err != nil {
			fatalf("trial %d (budget %d): %v", trial, budget, err)
		}
		if diag != "" {
			divergences++
			fmt.Printf("core trial %d DIVERGED (budget %d bytes, nonatomic=%v): %s\n",
				trial, budget, tcfg.nonAtomic, diag)
			fmt.Printf("  evidence kept in %s\n", dir)
			continue
		}
		if !*keep {
			os.RemoveAll(dir)
		}
	}
	fmt.Printf("core   %4d kills over %7d persisted bytes: %d divergence(s); recoveries=%d replayed-ops=%d torn-tails=%d snapshots-skipped=%d\n",
		*kills, totalBytes, divergences, pm.recoveries, pm.replayed, pm.tornTails, pm.skipped)

	// Kill-points inside the engine checkpoint-manifest write: torn or
	// rotted ENGINE.json must be refused typed, never decode-panicked.
	mfails, err := manifestTrials(filepath.Join(root, "manifest"), *kills, *seed)
	if err != nil {
		fatalf("manifest trials: %v", err)
	}
	divergences += mfails
	fmt.Printf("manifest %4d kill-point trials: %d refusal failure(s)\n", *kills, mfails)

	if divergences > 0 {
		fatalf("%d divergence(s) across %d kill trials per family", divergences, *kills)
	}
	fmt.Println("all kill trials recovered bit-identically")
}
