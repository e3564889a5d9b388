package rpubmw

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/obs"
)

// Trace track layout: tree levels occupy tids 1..L, each level's SRAM
// ports tid sramTidBase+level, and each level's refill strand (the
// RPU holding a popped node while the substitute is lifted from
// below) tid strandTidBase+level. The bases keep the groups visually
// separated in Perfetto's numeric tid ordering.
const (
	sramTidBase   = 100
	strandTidBase = 200
)

// instrumentation is the attached observability state; the simulator
// holds one pointer so an uninstrumented hot path pays one nil branch
// per hook site.
type instrumentation struct {
	cycles   [hw.NumCycleKinds]*obs.Counter
	rejected *obs.Counter
	// mandIdle counts honoured mandatory idle cycles: a nop issued in
	// the cycle immediately after a pop, when the write-back hazard of
	// Section 5.2.3 forbids any operation.
	mandIdle *obs.Counter

	almostFull    *obs.Counter
	wasAlmostFull bool
	occHigh       *obs.Gauge

	pushDepth *obs.Histogram
	popDepth  *obs.Histogram

	// sojourn observes enqueue-to-dequeue latency in clock cycles for
	// every popped element (the born tag on each slot).
	sojourn *obs.QuantileHistogram

	tr  *obs.TraceRecorder
	pid int64
	// prev* hold last cycle's per-level SRAM port totals so endCycle
	// can emit a port-activity slice only for ports that moved.
	prevReads, prevWrites, prevColl []uint64
	// strandStart[i] is the cycle liftQ[i] became valid (0 = idle);
	// rootStrand likewise for the root's pending lift.
	strandStart []uint64
	rootStrand  uint64
	lastOcc     int
}

func (s *Sim) instrState() *instrumentation {
	if s.instr == nil {
		s.instr = &instrumentation{
			prevReads:   make([]uint64, len(s.rams)),
			prevWrites:  make([]uint64, len(s.rams)),
			prevColl:    make([]uint64, len(s.rams)),
			strandStart: make([]uint64, len(s.rams)),
			lastOcc:     -1,
		}
	}
	return s.instr
}

// Instrument registers this simulator's pipeline probes in reg under
// the given metric-name prefix (e.g. "rpubmw"). Per-cycle facts are
// owned atomics; operation totals, per-level occupancy, SRAM port
// activity (reads, writes, and write-first hits — the operation-hiding
// events of Section 5.2.3) are snapshot-time callbacks reading
// simulator state — snapshot only between Ticks.
// A nil registry leaves the simulator uninstrumented.
func (s *Sim) Instrument(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	in := s.instrState()
	for k := 0; k < hw.NumCycleKinds; k++ {
		in.cycles[k] = reg.Counter(fmt.Sprintf("%s_cycles_%s_total", prefix, hw.CycleKind(k)))
	}
	in.rejected = reg.Counter(prefix + "_rejected_issues_total")
	in.mandIdle = reg.Counter(prefix + "_mandatory_idle_total")
	in.almostFull = reg.Counter(prefix + "_almost_full_events_total")
	in.occHigh = reg.Gauge(prefix + "_occupancy_highwater")
	depthBounds := make([]uint64, s.l)
	for i := range depthBounds {
		depthBounds[i] = uint64(i + 1)
	}
	in.pushDepth = reg.Histogram(prefix+"_push_depth_levels", depthBounds)
	in.popDepth = reg.Histogram(prefix+"_pop_depth_levels", depthBounds)
	reg.Help(prefix+"_sojourn_cycles",
		"enqueue-to-dequeue latency of popped elements in clock cycles")
	in.sojourn = reg.QuantileHistogram(prefix + "_sojourn_cycles")

	reg.CounterFunc(prefix+"_pushes_total", func() uint64 { return s.pushes })
	reg.CounterFunc(prefix+"_pops_total", func() uint64 { return s.pops })
	reg.CounterFunc(prefix+"_sram_reads_total", func() uint64 { r, _, _ := s.RAMStats(); return r })
	reg.CounterFunc(prefix+"_sram_writes_total", func() uint64 { _, w, _ := s.RAMStats(); return w })
	reg.CounterFunc(prefix+"_sram_write_first_hits_total", func() uint64 { _, _, c := s.RAMStats(); return c })
	reg.GaugeFunc(prefix+"_occupancy", func() float64 { return float64(s.size) })
	reg.GaugeFunc(prefix+"_capacity", func() float64 { return float64(s.capacity) })
	for lvl := 1; lvl <= s.l; lvl++ {
		lvl := lvl
		reg.GaugeFunc(fmt.Sprintf("%s_level%d_occupancy", prefix, lvl),
			func() float64 { return float64(s.levelOccupancy(lvl)) })
	}
}

// TraceTo attaches a cycle-trace recorder (1 cycle = 1 µs): RPU
// operations appear on per-level tracks, SRAM port activity on
// per-level port tracks (with write-first collision markers), and
// refill strands as slices spanning the lift wait. pid groups the
// tracks. A nil recorder leaves tracing off.
func (s *Sim) TraceTo(tr *obs.TraceRecorder, pid int64) {
	if tr == nil {
		return
	}
	in := s.instrState()
	in.tr = tr
	in.pid = pid
	tr.ProcessName(pid, fmt.Sprintf("RPU-BMW m=%d l=%d", s.m, s.l))
	tr.ThreadName(pid, 1, "level 1 (root RPU)")
	tr.ThreadName(pid, strandTidBase+1, "refill strand L1")
	for lvl := 2; lvl <= s.l; lvl++ {
		tr.ThreadName(pid, int64(lvl), fmt.Sprintf("level %d", lvl))
		tr.ThreadName(pid, sramTidBase+int64(lvl), fmt.Sprintf("SRAM%d ports", lvl))
		if lvl < s.l {
			tr.ThreadName(pid, strandTidBase+int64(lvl), fmt.Sprintf("refill strand L%d", lvl))
		}
	}
}

// levelOccupancy counts occupied slots at a 1-based level, reading
// the root registers and peeking the SRAMs (committed state only).
func (s *Sim) levelOccupancy(lvl int) int {
	occ := 0
	if lvl == 1 {
		for i := 0; i < s.m; i++ {
			if s.root[i].count != 0 {
				occ++
			}
		}
		return occ
	}
	r := s.rams[lvl-2]
	for w := 0; w < r.Words(); w++ {
		nd := r.Peek(w)
		for i := 0; i < s.m; i++ {
			if nd.slots[i].count != 0 {
				occ++
			}
		}
	}
	return occ
}

// classifyCycle buckets a consumed cycle; it must run before Tick
// updates s.available and the cooldown so it sees the state the issue
// decision was made against.
func (s *Sim) classifyCycle(op hw.Op) hw.CycleKind {
	switch op.Kind {
	case hw.Push:
		return hw.CycleIssuePush
	case hw.Pop:
		return hw.CycleIssuePop
	}
	if !s.available || s.cooldown > 0 {
		return hw.CycleStall
	}
	if !s.Quiescent() {
		return hw.CycleDrain
	}
	return hw.CycleIdle
}

// reject counts a refused issue (the cycle is not consumed).
func (s *Sim) reject(err error) error {
	if s.instr != nil {
		s.instr.rejected.Inc()
	}
	return err
}

// traceOp emits one RPU operation as a slice on its level's track.
func (in *instrumentation) traceOp(cycle uint64, lvl int64, kind hw.OpKind) {
	if in.tr == nil || kind == hw.Nop {
		return
	}
	in.tr.Slice(in.pid, lvl, int64(cycle), 1, kind.String(), nil)
}

// endCycle records the per-cycle facts after the cycle's RPU work and
// RAM edges; wasAvailable is the availability the issue saw.
func (in *instrumentation) endCycle(s *Sim, kind hw.CycleKind, op hw.Op, wasAvailable bool) {
	in.cycles[kind].Inc()
	if op.Kind == hw.Nop && !wasAvailable {
		in.mandIdle.Inc()
	}
	in.occHigh.Max(float64(s.size))
	if full := s.AlmostFull(); full != in.wasAlmostFull {
		if full {
			in.almostFull.Inc()
			if in.tr != nil {
				in.tr.Instant(in.pid, 1, int64(s.cycle), "almost_full", nil)
			}
		}
		in.wasAlmostFull = full
	}
	if in.tr == nil {
		// Strand starts must still be tracked so metrics-only runs that
		// later attach a recorder don't emit bogus spans; cheap anyway.
		in.trackStrands(s)
		return
	}
	ts := int64(s.cycle)
	for i, r := range s.rams {
		reads, writes, coll := r.Stats()
		tid := sramTidBase + int64(i+2)
		if reads > in.prevReads[i] {
			in.tr.Slice(in.pid, tid, ts, 1, "rd", nil)
		}
		if writes > in.prevWrites[i] {
			in.tr.Slice(in.pid, tid, ts, 1, "wr", nil)
		}
		if coll > in.prevColl[i] {
			in.tr.Instant(in.pid, tid, ts, "write_first_hit", nil)
		}
		in.prevReads[i], in.prevWrites[i], in.prevColl[i] = reads, writes, coll
	}
	in.trackStrands(s)
	if s.size != in.lastOcc {
		in.tr.Counter(in.pid, ts, "occupancy", map[string]any{"elements": s.size})
		in.lastOcc = s.size
	}
	// Sojourn quantiles render as a periodic counter track; every 1024
	// cycles keeps the event volume negligible next to the op slices.
	if s.cycle&1023 == 0 {
		in.tr.QuantileCounter(in.pid, ts, "sojourn_cycles", in.sojourn.Snapshot())
	}
}

// SojournSnapshot returns the sojourn-latency distribution collected
// since Instrument was called (the zero snapshot when uninstrumented).
func (s *Sim) SojournSnapshot() obs.QuantileSnapshot {
	if s.instr == nil {
		return obs.QuantileSnapshot{}
	}
	return s.instr.sojourn.Snapshot()
}

// trackStrands turns liftQ/rootLift valid spans into trace slices:
// a strand's slice is emitted when it completes, so traces never hold
// unbalanced begin events. Start cycles are stored +1 so 0 means idle.
func (in *instrumentation) trackStrands(s *Sim) {
	emit := func(start *uint64, valid bool, tid int64) {
		switch {
		case valid && *start == 0:
			*start = s.cycle + 1
		case !valid && *start != 0:
			if in.tr != nil {
				begin := int64(*start - 1)
				in.tr.Slice(in.pid, tid, begin, int64(s.cycle)-begin, "lift_wait", nil)
			}
			*start = 0
		}
	}
	emit(&in.rootStrand, s.rootLift.valid, strandTidBase+1)
	for i := range s.liftQ {
		emit(&in.strandStart[i], s.liftQ[i].valid, strandTidBase+int64(i+2))
	}
}
