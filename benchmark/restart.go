package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/persist"
)

// scratchDir makes a directory for checkpoints inside the checkout
// (under .bench_build, which .gitignore names) and returns it with its
// remover.
func scratchDir() (string, func(), error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(base, "ckpt-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// cycleTimes are one restart cycle's three phases.
type cycleTimes struct {
	checkpoint, verify, restore time.Duration
}

func (c cycleTimes) total() time.Duration { return c.checkpoint + c.verify + c.restore }

// restartCycle is one graceful restart the way cmd/bmwd does it with
// -persist: close the engine and checkpoint every shard, audit each
// shard directory read-only, then build a fresh engine restoring from
// the checkpoint. It returns the restored engine; the closed one stays
// readable through ShardDrain.
func restartCycle(eng *engine.Engine, geom engine.Config, dir string, rec *spanRec, parent, req int32) (*engine.Engine, cycleTimes, error) {
	var ct cycleTimes
	h := rec.begin("engine.Close+Checkpoint", parent, req, 1)
	t0 := time.Now()
	eng.Close()
	if err := eng.Checkpoint(dir); err != nil {
		return nil, ct, fmt.Errorf("checkpoint: %w", err)
	}
	ct.checkpoint = time.Since(t0)
	rec.end(h)

	h = rec.begin("persist.VerifyDir", parent, req, 1)
	t0 = time.Now()
	for i := 0; i < eng.Shards(); i++ {
		if r := persist.VerifyDir(nil, engine.ShardDir(dir, i)); !r.Clean() {
			return nil, ct, fmt.Errorf("verify shard %d: %s", i, r.Findings[0].String())
		}
	}
	ct.verify = time.Since(t0)
	rec.end(h)

	h = rec.begin("engine.New{RestoreDir}", parent, req, 1)
	t0 = time.Now()
	geom.RestoreDir = dir
	restored, err := engine.New(geom)
	if err != nil {
		return nil, ct, fmt.Errorf("restore: %w", err)
	}
	ct.restore = time.Since(t0)
	rec.end(h)
	if restored.Len() != eng.Len() {
		restored.Close()
		return nil, ct, fmt.Errorf("restore: %d elements restored of %d checkpointed", restored.Len(), eng.Len())
	}
	return restored, ct, nil
}

// restarter is the restart_large workload: an engine holding a fixed
// content that is carried through restart cycles. An "op" is one
// element carried through one cycle, a "batch" one cycle.
type restarter struct {
	w     *workload
	eng   *engine.Engine
	dir   string
	rmDir func()
	elems int

	lat    samples
	phases []cycleTimes
	cpu    time.Duration
}

// buildRestarter fills an engine through SubmitInto and runs one cycle
// as warm-up.
func buildRestarter(w *workload, tape []core.Element) (*restarter, error) {
	filled, err := build(w, rungEngine, tape, buildOpts{warmBatches: -1})
	if err != nil {
		return nil, err
	}
	r := &restarter{w: w, eng: filled.eng, elems: filled.prefilled}
	if r.dir, r.rmDir, err = scratchDir(); err != nil {
		r.eng.Close()
		return nil, err
	}
	if err := r.cycle(nil); err != nil {
		r.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	r.lat, r.phases, r.cpu = nil, nil, 0
	return r, nil
}

func (r *restarter) cycle(rec *spanRec) error {
	req := rec.newReq()
	h := rec.begin("restart cycle", 0, req, 1)
	c0 := cpuTime()
	next, ct, err := restartCycle(r.eng, r.w.geom, r.dir, rec, h, req)
	rec.end(h)
	if err != nil {
		return err
	}
	r.eng = next
	r.cpu += cpuTime() - c0
	r.lat = append(r.lat, int64(ct.total()))
	r.phases = append(r.phases, ct)
	return nil
}

func (r *restarter) close() {
	r.eng.Close()
	r.rmDir()
}

// finish runs one last cycle and checks the restored engine drains to
// exactly what the checkpointed one held, shard by shard.
func (r *restarter) finish() error {
	defer r.rmDir()
	before := r.eng
	after, _, err := restartCycle(before, r.w.geom, r.dir, nil, 0, 0)
	if err != nil {
		return err
	}
	after.Close()
	want, err := drainEngine(before)
	if err != nil {
		return err
	}
	got, err := drainEngine(after)
	if err != nil {
		return err
	}
	if n := len(flatten(want)); n != r.elems {
		return fmt.Errorf("restart: %d elements held before the last checkpoint, %d prefilled", n, r.elems)
	}
	return sameDrain("restored against checkpointed", got, want)
}

// snapshotBytes sums the snapshot files a checkpoint left under dir.
func snapshotBytes(dir string, shards int) (int64, error) {
	var total int64
	for i := 0; i < shards; i++ {
		snaps, err := filepath.Glob(filepath.Join(engine.ShardDir(dir, i), "*.snap"))
		if err != nil {
			return 0, err
		}
		// A checkpoint retains the previous snapshot too; the newest is
		// the one this checkpoint wrote.
		var newest string
		for _, s := range snaps {
			if s > newest {
				newest = s
			}
		}
		if newest == "" {
			return 0, fmt.Errorf("no snapshot under %s", engine.ShardDir(dir, i))
		}
		fi, err := os.Stat(newest)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// walRecord times persist.Manager.Record on a fresh log with bmwd-style
// group commit (BatchOps 64, no fsync on append, default chain seals)
// and returns ns and bytes per recorded op.
func walRecord(w *workload, tape []core.Element, n int) (nsPerOp, bytesPerOp float64, err error) {
	dir, rm, err := scratchDir()
	if err != nil {
		return 0, 0, err
	}
	defer rm()
	m, _, err := persist.Open(dir, core.New(w.geom.Order, w.geom.Levels),
		persist.Options{WAL: persist.WALOptions{BatchOps: 64, Sync: persist.SyncNone}})
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		e := tape[i%len(tape)]
		if err := m.Record(persist.Op{Kind: hw.Push, Cycle: uint64(i + 1), Value: e.Value, Meta: e.Meta}); err != nil {
			m.Close()
			return 0, 0, err
		}
	}
	if err := m.WAL().Commit(); err != nil {
		m.Close()
		return 0, 0, err
	}
	dt := time.Since(t0)
	if err := m.Close(); err != nil {
		return 0, 0, err
	}
	fi, err := os.Stat(filepath.Join(dir, persist.WALName))
	if err != nil {
		return 0, 0, err
	}
	size := fi.Size()
	return float64(dt.Nanoseconds()) / float64(n), float64(size) / float64(n), nil
}
