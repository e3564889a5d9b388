package main

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/persist"
)

// config describes one crash-trial family: the knobs shared by its
// calibration run and every kill trial.
type config struct {
	m, l      int // tree shape
	ops       int // workload steps per run
	ckptEvery int // recorded ops between checkpoints
	batch     int // WAL group-commit threshold
	nonAtomic bool
	metrics   *persistMetrics // optional counter rollup
}

// persistMetrics accumulates recovery counters across trials.
type persistMetrics struct {
	recoveries, replayed, tornTails, skipped uint64
}

// driver runs the seeded workload against the software BMW-Tree and
// remembers every op it handed to the WAL.
type driver struct {
	t      *core.Tree
	issued []persist.Op
}

func newDriver(cfg config) *driver { return &driver{t: core.New(cfg.m, cfg.l)} }

// step applies workload step i: a pop one time in three (or whenever the
// tree is full), otherwise a push.
func (d *driver) step(rng *rand.Rand, i int) (persist.Op, error) {
	t := d.t
	if t.Len() > 0 && (rng.Intn(3) == 0 || t.AlmostFull()) {
		e, err := t.Pop()
		if err != nil {
			return persist.Op{}, err
		}
		p, q := t.OpStats()
		return persist.Op{Kind: hw.Pop, Cycle: p + q, Value: e.Value, Meta: e.Meta}, nil
	}
	e := core.Element{Value: uint64(rng.Intn(1000)), Meta: uint64(i)}
	if err := t.Push(e); err != nil {
		return persist.Op{}, err
	}
	p, q := t.OpStats()
	return persist.Op{Kind: hw.Push, Cycle: p + q, Value: e.Value, Meta: e.Meta}, nil
}

// drain pops every element of t in dequeue order.
func drain(t *core.Tree) ([]core.Element, error) {
	var out []core.Element
	for t.Len() > 0 {
		e, err := t.Pop()
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
	return out, nil
}

func options(cfg config, fs persist.FS) persist.Options {
	return persist.Options{
		WAL:                persist.WALOptions{BatchOps: cfg.batch, Sync: persist.SyncBatch},
		NonAtomicSnapshots: cfg.nonAtomic,
		FS:                 fs,
	}
}

// runWorkload drives the seeded schedule, logging every accepted op and
// checkpointing on cadence. It returns the manager's first error —
// persist.ErrKilled is the expected abort in a kill trial.
func runWorkload(d *driver, m *persist.Manager, rng *rand.Rand, cfg config) error {
	sinceCkpt := 0
	for i := 0; i < cfg.ops; i++ {
		op, err := d.step(rng, i)
		if err != nil {
			return fmt.Errorf("workload step %d: %w", i, err)
		}
		if err := m.Record(op); err != nil {
			return err
		}
		d.issued = append(d.issued, op)
		sinceCkpt++
		if sinceCkpt >= cfg.ckptEvery {
			if err := m.Checkpoint(); err != nil {
				return err
			}
			sinceCkpt = 0
		}
	}
	return nil
}

// calibrate runs one uninterrupted workload against an unlimited crash
// disk and reports the total bytes the persistence layer wrote — the
// sample space for kill-point budgets.
func calibrate(dir string, cfg config, seed int64) (int64, error) {
	disk := persist.NewCrashDisk(1<<62, seed)
	d := newDriver(cfg)
	m, rep, err := persist.Open(dir, d.t, options(cfg, disk))
	if err != nil {
		return 0, err
	}
	if rep.WALRecords != 0 || rep.SnapshotSeq != 0 {
		return 0, fmt.Errorf("calibration dir %s is not fresh", dir)
	}
	if err := runWorkload(d, m, rand.New(rand.NewSource(seed)), cfg); err != nil {
		return 0, err
	}
	if err := m.Close(); err != nil {
		return 0, err
	}
	return disk.BytesWritten(), nil
}

// killTrial crashes one run after budget persisted bytes, recovers from
// the torn directory, and differentially validates the recovered queue.
// A non-empty string describes a divergence; error reports harness
// failures unrelated to the property under test.
func killTrial(dir string, cfg config, seed, budget, tearSeed int64) (string, error) {
	disk := persist.NewCrashDisk(budget, tearSeed)
	d := newDriver(cfg)
	m, _, err := persist.Open(dir, d.t, options(cfg, disk))
	if err == nil {
		err = runWorkload(d, m, rand.New(rand.NewSource(seed)), cfg)
	}
	if err != nil && !errors.Is(err, persist.ErrKilled) {
		return "", fmt.Errorf("workload failed before the crash point: %w", err)
	}
	// The process "dies" here: the manager is abandoned un-closed, and
	// the crash disk has already torn every unsynced file suffix.

	rec := core.New(cfg.m, cfg.l)
	m2, rep, err := persist.Open(dir, rec, options(cfg, persist.OSFS{}))
	if err != nil {
		return fmt.Sprintf("recovery failed: %v", err), nil
	}
	if err := m2.Close(); err != nil {
		return fmt.Sprintf("post-recovery close failed: %v", err), nil
	}
	if cfg.metrics != nil {
		cfg.metrics.recoveries++
		cfg.metrics.replayed += uint64(rep.ReplayedOps)
		cfg.metrics.skipped += uint64(rep.SnapshotsSkipped)
		if rep.TornTail {
			cfg.metrics.tornTails++
		}
	}

	// 1. The durable op log must be a prefix of what the crashed run
	// actually issued: no invented, reordered or corrupted records.
	if len(rep.Ops) > len(d.issued) {
		return fmt.Sprintf("recovered %d ops but only %d were issued", len(rep.Ops), len(d.issued)), nil
	}
	for i, op := range rep.Ops {
		if op != d.issued[i] {
			return fmt.Sprintf("durable op %d diverged: %+v vs issued %+v", i, op, d.issued[i]), nil
		}
	}

	// 2. Golden replay: the durable log must drive an uninterrupted
	// reference queue without a pop audit failure.
	want, gerr := goldenDrain(cfg, rep.Ops)
	if gerr != "" {
		return gerr, nil
	}

	// 3. The recovered queue passes its invariant checker.
	if err := rec.VerifyRecovered(); err != nil {
		return fmt.Sprintf("recovered queue failed verification: %v", err), nil
	}

	// 4. Differential drain: bit-identical pop order.
	got, _ := drain(rec)
	if len(got) != len(want) {
		return fmt.Sprintf("drain lengths diverged: recovered %d vs golden %d", len(got), len(want)), nil
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("drain pop %d diverged: recovered %+v vs golden %+v", i, got[i], want[i]), nil
		}
	}
	return "", nil
}

// goldenDrain replays the durable log into an uninterrupted software
// tree and drains it.
func goldenDrain(cfg config, ops []persist.Op) ([]core.Element, string) {
	t := core.New(cfg.m, cfg.l)
	for i, op := range ops {
		if err := t.Replay(op); err != nil {
			return nil, fmt.Sprintf("golden replay op %d: %v", i, err)
		}
	}
	out, err := drain(t)
	if err != nil {
		return nil, fmt.Sprintf("golden drain: %v", err)
	}
	return out, ""
}
