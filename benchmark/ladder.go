package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
)

// ladderWarmBatches is each rung's warm-up in the traced run: the rungs
// share one run's time, so they warm up briefly.
const ladderWarmBatches = 256

// ladder is one traced run: the workload's tape replayed rung by rung,
// every call into a layer wrapped in a span, and the per-layer metrics
// derived from the rungs (a layer's self time is its rung minus the
// rung below).
type ladder struct {
	w     *workload
	tape  []core.Element
	unit  time.Duration // one sixteenth of the run's time
	rec   *spanRec
	res   *result
	rungs map[rung]*interval
}

func (l *ladder) set(name string, v float64) { l.res.set(perLayer, name, v) }

// hooks let a rung read the live system around each round's measured
// interval.
type hooks struct {
	before func(*system)
	after  func(*system, *interval)
}

// opts are the build options of one rung: the cluster rung always
// sends a batch's pushes and pops apart, so that each half can be set
// against the same halves sent straight to one node.
func (l *ladder) opts(level rung, rec *spanRec) buildOpts {
	return buildOpts{rec: rec, split: level == rungCluster, warmBatches: ladderWarmBatches}
}

// budget is what one system may measure inside a share of the run's
// time: the workload's own measureOps at most, like a round of the
// end-to-end run (see workload.measureOps for why a system's life is
// that short), and less when the share ends first.
func (l *ladder) budget(until time.Time) budget {
	return budget{ops: l.w.measureOps, until: until}
}

// rungRun measures the workload at one rung for units sixteenths of
// the run. It works in rounds, as the end-to-end run does: build the
// system, measure it, finish it (teardown plus the conservation check,
// and follower against primary under sync). The rung is the sum of its
// rounds.
func (l *ladder) rungRun(level rung, units float64, bo buildOpts, hk hooks) (*interval, error) {
	until := time.Now().Add(time.Duration(units * float64(l.unit)))
	sum := &interval{}
	for first := true; first || time.Now().Before(until); first = false {
		runtime.GC() // the round before left a dead system behind
		s, err := build(l.w, level, l.tape, bo)
		if err != nil {
			return nil, err
		}
		if hk.before != nil {
			hk.before(s)
		}
		iv, err := measure(s, l.budget(until))
		if err != nil {
			return nil, err
		}
		if hk.after != nil {
			hk.after(s, iv)
		}
		if err := s.finish(); err != nil {
			return nil, err
		}
		sum.add(iv)
	}
	if sum.acked() == 0 {
		return nil, fmt.Errorf("no op was acknowledged")
	}
	l.res.Attempted += sum.tally.attempted
	l.res.Failed += sum.tally.failed
	return sum, nil
}

// top runs the workload's own path — the rung its end-to-end run stops
// at — with or without span recording.
func (l *ladder) top(rec *spanRec) (*interval, error) {
	if l.w.top == rungPersist {
		r, err := buildRestarter(l.w, l.tape)
		if err != nil {
			return nil, err
		}
		iv, err := measureRestarts(r, l.budget(time.Now().Add(time.Duration(1.5*float64(l.unit)))), rec)
		if err != nil {
			return nil, err
		}
		l.res.Attempted += iv.tally.attempted
		return iv, r.finish()
	}
	return l.rungRun(l.w.top, 1.5, l.opts(l.w.top, rec), hooks{})
}

// runLadder is the traced run of one workload.
func runLadder(w *workload, seed uint64, d time.Duration, traceOut string) (*result, error) {
	l := &ladder{w: w, tape: newTape(seed, tapeLen), unit: d / 16, rec: newSpanRec(),
		res: &result{Metrics: map[string]mvalue{}}, rungs: map[rung]*interval{}}
	// Sized up front (for some 400 000 spans a second) so that span
	// growth is not mistaken for the replication log's heap growth.
	l.rec.spans = make([]span, 0, min(1<<21, int(d.Seconds()*400_000)+4096))

	steps := []struct {
		name  string
		level rung
		run   func() error
	}{
		{"core rung", rungCore, l.core}, {"engine rung", rungEngine, l.engine},
		{"wire codec", -1, l.codec}, {"wire rung", rungWire, l.wire},
		{"replic rung", rungReplic, l.replic}, {"obs rung", rungObs, l.obs},
		{"sync rung", rungSync, l.sync}, {"cluster rung", rungCluster, l.cluster},
		{"persist rung", rungPersist, l.persist},
	}
	var untraced *interval
	for _, st := range steps {
		if st.level == w.top {
			// The workload's own path, untraced, right before the same
			// rung traced: the base of trace.overhead_share and the
			// source of load.fail_share and stall.max_ms.
			var err error
			if untraced, err = l.top(nil); err != nil {
				return nil, fmt.Errorf("%s, untraced: %w", st.name, err)
			}
		}
		if err := st.run(); err != nil {
			return nil, fmt.Errorf("%s: %w", st.name, err)
		}
	}
	l.set("load.fail_share", float64(untraced.tally.failed)/float64(untraced.tally.attempted))
	l.set("stall.max_ms", float64(maxOf(untraced.lat))/1e6)
	l.set("load.batch_p50_us", float64(quantileOf(untraced.lat, 0.5))/1e3)
	l.set("load.cpu_us_per_op", untraced.cpuUsPerOp())
	top := l.rungs[w.top]
	l.set("core.share", l.rungs[rungCore].nsPerOp()/top.nsPerOp())
	l.set("trace.overhead_share", (untraced.opsPerS()-top.opsPerS())/untraced.opsPerS())
	l.res.Correct = true
	if traceOut != "" {
		if err := l.rec.write(traceOut); err != nil {
			return nil, err
		}
	}
	return l.res, nil
}

// delta is a layer's self time: its rung minus the rung below.
func (l *ladder) delta(level, below rung) float64 {
	return l.rungs[level].nsPerOp() - l.rungs[below].nsPerOp()
}

// core: the bare tree under the workload's shape, then pushes and pops
// timed apart on the same geometry and fill.
func (l *ladder) core() error {
	iv, err := l.rungRun(rungCore, 1, l.opts(rungCore, l.rec), hooks{})
	if err != nil {
		return err
	}
	l.rungs[rungCore] = iv
	l.set("core.rung_ns_per_op", iv.nsPerOp())

	w := l.w
	t := core.New(w.geom.Order, w.geom.Levels)
	run := min(max(w.batch, 64), t.Cap()/4)
	lo := int(w.fill * float64(t.Cap()))
	hi := lo + run
	if w.shape == shapeSawtooth {
		lo, hi = int(w.loFill*float64(t.Cap())), int(w.hiFill*float64(t.Cap()))
	}
	pos := 0
	next := func() core.Element { pos++; return l.tape[pos%len(l.tape)] }
	for t.Len() < lo {
		if err := t.Push(next()); err != nil {
			return err
		}
	}
	// Runs of pushes up to hi and pops back down to lo, a batch at a
	// time, each run inside one clock pair.
	var pushNs, popNs time.Duration
	var pushes, pops int
	for until := time.Now().Add(l.unit / 2); time.Now().Before(until); {
		for t.Len()+run <= hi {
			req := l.rec.newReq()
			h := l.rec.begin("core.Tree.Push", 0, req, 1)
			t0 := time.Now()
			for i := 0; i < run; i++ {
				if err := t.Push(next()); err != nil {
					return err
				}
			}
			pushNs += time.Since(t0)
			l.rec.end(h)
			pushes += run
		}
		for t.Len()-run >= lo {
			req := l.rec.newReq()
			h := l.rec.begin("core.Tree.Pop", 0, req, 1)
			t0 := time.Now()
			for i := 0; i < run; i++ {
				if _, err := t.Pop(); err != nil {
					return err
				}
			}
			popNs += time.Since(t0)
			l.rec.end(h)
			pops += run
		}
	}
	l.set("core.push_ns", float64(pushNs.Nanoseconds())/float64(pushes))
	l.set("core.pop_ns", float64(popNs.Nanoseconds())/float64(pops))
	return nil
}

// engine: one submitter calling SubmitInto, no server around it.
func (l *ladder) engine() error {
	var m0, m1 runtime.MemStats
	var mallocs uint64
	iv, err := l.rungRun(rungEngine, 1.5, l.opts(rungEngine, l.rec), hooks{
		before: func(*system) { runtime.ReadMemStats(&m0) },
		after:  func(*system, *interval) { runtime.ReadMemStats(&m1); mallocs += m1.Mallocs - m0.Mallocs },
	})
	if err != nil {
		return err
	}
	l.rungs[rungEngine] = iv
	l.set("engine.submit_ns_per_op", iv.nsPerOp())
	l.set("engine.self_ns_per_op", l.delta(rungEngine, rungCore))
	l.set("engine.allocs_per_batch", float64(mallocs)/float64(count(iv.lat)))
	l.set("engine.refused_share", float64(iv.tally.failed)/float64(iv.tally.attempted))
	return nil
}

// codec: one batch through every encode and decode step a request and
// its response take, with no socket in between. Each batch is timed as
// a whole; one batch in 64 is replayed with a span around each step.
func (l *ladder) codec() error {
	w := l.w
	d := newWireDriver("", nil, w.batch)
	capacity := core.Capacity(w.geom.Order, w.geom.Levels)
	g := newGen(w, l.tape, 0, capacity, int(w.fill*float64(capacity)))
	results := make([]wire.Result, w.batch)
	var reqPayload, reqFrame, respPayload, respFrame []byte
	var f wire.Frame
	steps := []struct {
		name string
		run  func() error
	}{
		{"wire.AppendOps", func() error { reqPayload = wire.AppendOps(reqPayload[:0], d.ops); return nil }},
		{"wire.AppendFrame", func() error { reqFrame = wire.AppendFrame(reqFrame[:0], wire.TBatch, 1, reqPayload); return nil }},
		{"wire.DecodeFrame", func() (err error) { f, _, err = wire.DecodeFrame(reqFrame); return err }},
		{"wire.ParseOps", func() error { _, err := wire.ParseOps(f.Payload); return err }},
		{"wire.AppendResults", func() error { respPayload = wire.AppendResults(respPayload[:0], results); return nil }},
		{"wire.AppendFrame", func() error { respFrame = wire.AppendFrame(respFrame[:0], wire.TBatchOK, 1, respPayload); return nil }},
		{"wire.DecodeFrame", func() (err error) { f, _, err = wire.DecodeFrame(respFrame); return err }},
		{"wire.ParseResults", func() error { _, err := wire.ParseResults(f.Payload); return err }},
	}
	var total time.Duration
	var batches, bytes int
	for until := time.Now().Add(l.unit / 2); time.Now().Before(until); batches++ {
		d.build(g)
		for i, op := range d.ops {
			results[i] = wire.Result{Status: wire.StatusOK, Value: op.Value, Meta: op.Meta}
		}
		t0 := time.Now()
		for _, st := range steps {
			if err := st.run(); err != nil {
				return fmt.Errorf("%s: %w", st.name, err)
			}
		}
		total += time.Since(t0)
		bytes += len(reqFrame) + len(respFrame)
		if batches%64 == 0 {
			req := l.rec.newReq()
			root := l.rec.begin("wire codec", 0, req, 1)
			for _, st := range steps {
				h := l.rec.begin(st.name, root, req, 1)
				err := st.run()
				l.rec.end(h)
				if err != nil {
					return fmt.Errorf("%s: %w", st.name, err)
				}
			}
			l.rec.end(root)
		}
	}
	ops := float64(batches * w.batch)
	l.set("wire.codec_ns_per_op", float64(total.Nanoseconds())/ops)
	l.set("wire.bytes_per_op", float64(bytes)/ops)

	// Allocations of the server's decode path alone: frame, then ops.
	const rounds = 1000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		f, _, err := wire.DecodeFrame(reqFrame)
		if err != nil {
			return err
		}
		if _, err := wire.ParseOps(f.Payload); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	l.set("wire.decode_allocs_per_batch", float64(m1.Mallocs-m0.Mallocs)/rounds)
	return nil
}

// wire: bmwd's server config and bmwload's session-enrolled client over
// loopback, with nothing attached to the server yet.
func (l *ladder) wire() error {
	iv, err := l.rungRun(rungWire, 1.5, l.opts(rungWire, l.rec), hooks{})
	if err != nil {
		return err
	}
	l.rungs[rungWire] = iv
	l.set("wire.rtt_ns_per_op", iv.nsPerOp())
	l.set("wire.self_ns_per_op", l.delta(rungWire, rungEngine))
	l.set("wire.frames_per_s", float64(count(iv.lat))/iv.wall.Seconds())
	return nil
}

// replic: + replic.Attach with no follower. The heap that stays live
// per acked op is the genesis-retained replication log.
func (l *ladder) replic() error {
	var h0, h1 runtime.MemStats
	var grown float64
	iv, err := l.rungRun(rungReplic, 1.5, l.opts(rungReplic, l.rec), hooks{
		before: func(*system) { runtime.GC(); runtime.ReadMemStats(&h0) },
		after: func(*system, *interval) {
			runtime.GC()
			runtime.ReadMemStats(&h1)
			grown += float64(h1.HeapAlloc) - float64(h0.HeapAlloc)
		},
	})
	if err != nil {
		return err
	}
	l.rungs[rungReplic] = iv
	l.set("replic.tap_ns_per_op", l.delta(rungReplic, rungWire))
	l.set("replic.log_bytes_per_op", grown/float64(iv.acked()))
	return nil
}

// obs: + flight recorder, request tracer, instruments and runtime
// collector. The server's own stage histograms are read here, to set
// beside the rung deltas; they are those of the rung's last round.
func (l *ladder) obs() error {
	iv, err := l.rungRun(rungObs, 1.5, l.opts(rungObs, l.rec), hooks{after: func(s *system, _ *interval) {
		snap := s.primary().reg.Snapshot()
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			name := "obs.stage_" + st.String() + "_p50_us"
			if st == obs.StageIssue {
				name = "obs.stage_total_p50_us"
			}
			l.set(name, float64(snap.Quantile(obs.StageMetricName(tracePrefix, st)).P50)/1e3)
		}
		var drain, occ obs.HistogramSnapshot
		eng := s.primary().eng
		shortest, longest := eng.ShardLen(0), eng.ShardLen(0)
		for i := 0; i < eng.Shards(); i++ {
			p := fmt.Sprintf("bmwd_engine_shard%d", i)
			drain = addHist(drain, snap.Histograms[p+"_drain_batch"])
			occ = addHist(occ, snap.Histograms[p+"_ring_occupancy"])
			shortest, longest = min(shortest, eng.ShardLen(i)), max(longest, eng.ShardLen(i))
		}
		l.set("engine.drain_batch_mean", drain.Mean())
		l.set("engine.ring_occ_mean", occ.Mean())
		l.set("engine.shard_len_skew", float64(longest-shortest)/float64(max(eng.Len(), 1)))
	}})
	if err != nil {
		return err
	}
	l.rungs[rungObs] = iv
	l.set("obs.ns_per_op", l.delta(rungObs, rungReplic))
	return nil
}

func addHist(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	a.Count += b.Count
	a.Sum += b.Sum
	return a
}

// sync: + a synchronous in-process follower; every response waits for
// its ack. The follower's lag is sampled while the rung runs.
func (l *ladder) sync() error {
	var (
		lag  uint64
		stop chan struct{}
		wg   sync.WaitGroup
	)
	iv, err := l.rungRun(rungSync, 1.5, l.opts(rungSync, l.rec), hooks{
		before: func(s *system) {
			stop = make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				t := time.NewTicker(2 * time.Millisecond)
				defer t.Stop()
				for {
					select {
					case <-stop:
						return
					case <-t.C:
						if st := s.primary().repl.Status(); st.LogSeq > st.AckSeq {
							lag = max(lag, st.LogSeq-st.AckSeq)
						}
					}
				}
			}()
		},
		after: func(*system, *interval) {
			close(stop)
			wg.Wait()
		},
	})
	if err != nil {
		return err
	}
	l.rungs[rungSync] = iv
	l.set("replic.sync_ack_ns_per_op", l.delta(rungSync, rungObs))
	l.set("replic.follower_lag_ops", float64(lag))
	// measure refuses a round whose primary went degraded, so a rung
	// that got here saw none.
	l.set("replic.degraded", 0)
	return nil
}

// cluster: two primaries under a rank-band map behind one routing
// client, against the same split batches sent straight to one node.
func (l *ladder) cluster() error {
	var via, direct splitTimes
	var okPops, nodeOps uint64
	var redirects, refreshes uint64
	iv, err := l.rungRun(rungCluster, 1.5, l.opts(rungCluster, l.rec), hooks{after: func(s *system, _ *interval) {
		via.add(s.callers[0].d.(*splitDriver).splitTimes)
		st := s.cl.Stats()
		redirects, refreshes = redirects+st.Redirects, refreshes+st.MapRefreshes
		for _, n := range st.PerNode {
			nodeOps += n.Ops
			okPops += n.Pops
		}
	}})
	if err != nil {
		return err
	}
	l.rungs[rungCluster] = iv
	bo := l.opts(rungObs, l.rec)
	bo.split = true
	if _, err := l.rungRun(rungObs, 1, bo, hooks{after: func(s *system, _ *interval) {
		direct.add(s.callers[0].d.(*splitDriver).splitTimes)
	}}); err != nil {
		return fmt.Errorf("direct to one node: %w", err)
	}
	perOp := func(ns time.Duration, n uint64) float64 { return float64(ns.Nanoseconds()) / float64(max(n, 1)) }
	l.set("cluster.rung_ns_per_op", iv.nsPerOp())
	l.set("cluster.push_route_ns_per_op", perOp(via.pushNs, via.pushes)-perOp(direct.pushNs, direct.pushes))
	l.set("cluster.popmin_ns_per_pop", perOp(via.popNs, via.pops)-perOp(direct.popNs, direct.pops))
	// Every op the client sent a node that was not a push belongs to the
	// pop merge; a merge round trip carries two ([OpPop, OpPeek]), a bare
	// head probe one, so this counts a probe as half a round trip.
	l.set("cluster.rtts_per_pop", float64(nodeOps-via.pushes)/2/float64(max(okPops, 1)))
	l.set("cluster.redirects", float64(redirects))
	l.set("cluster.map_refreshes", float64(refreshes))
	return nil
}

// persist: restart cycles on the workload's geometry and fill, and the
// WAL's record path on its own (the WAL is not on bmwd's live path
// today; the pair is the baseline for when it is).
func (l *ladder) persist() error {
	w := l.w
	r, err := buildRestarter(w, l.tape)
	if err != nil {
		return err
	}
	units := 0.5
	if w.top == rungPersist {
		units = 1.5
	}
	iv, err := measureRestarts(r, l.budget(time.Now().Add(time.Duration(units*float64(l.unit)))), l.rec)
	if err != nil {
		return err
	}
	l.rungs[rungPersist] = iv
	l.res.Attempted += iv.tally.attempted
	var ck, vf, rs []float64
	for _, p := range r.phases {
		ck = append(ck, p.checkpoint.Seconds()*1e3)
		vf = append(vf, p.verify.Seconds()*1e3)
		rs = append(rs, p.restore.Seconds()*1e3)
	}
	l.set("persist.checkpoint_ms", median(ck))
	l.set("persist.verify_ms", median(vf))
	l.set("persist.restore_ms", median(rs))
	size, err := snapshotBytes(r.dir, r.eng.Shards())
	if err != nil {
		r.close()
		return err
	}
	l.set("persist.snapshot_bytes_per_elem", float64(size)/float64(r.elems))
	if err := r.finish(); err != nil {
		return err
	}
	ns, by, err := walRecord(w, l.tape, 1<<16)
	if err != nil {
		return err
	}
	l.set("persist.wal_record_ns_per_op", ns)
	l.set("persist.wal_bytes_per_op", by)
	return nil
}
