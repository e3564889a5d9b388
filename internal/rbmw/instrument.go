package rbmw

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/obs"
)

// instrumentation is the attached observability state. The simulator
// holds a single pointer to it, so the hot path of an uninstrumented
// Sim pays exactly one nil branch per hook site and nothing else.
type instrumentation struct {
	cycles   [hw.NumCycleKinds]*obs.Counter
	rejected *obs.Counter

	almostFull    *obs.Counter
	wasAlmostFull bool
	occHigh       *obs.Gauge

	pushDepth *obs.Histogram // level where a push wave parked
	popDepth  *obs.Histogram // level where a pop refill chain ended

	// sojourn observes enqueue-to-dequeue latency in clock cycles for
	// every popped element (the born tag on each slot).
	sojourn *obs.QuantileHistogram

	tr      *obs.TraceRecorder
	pid     int64
	lastOcc int // last occupancy emitted on the trace counter track
}

func (s *Sim) instrState() *instrumentation {
	if s.instr == nil {
		s.instr = &instrumentation{lastOcc: -1}
	}
	return s.instr
}

// Instrument registers this simulator's pipeline probes in reg under
// the given metric-name prefix (e.g. "rbmw"). Counters and gauges for
// per-cycle facts are owned atomics; per-level occupancy and operation
// totals are snapshot-time callbacks that read simulator state — take snapshots only while the simulator is
// not mid-Tick. A nil registry leaves the simulator uninstrumented.
func (s *Sim) Instrument(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	in := s.instrState()
	for k := 0; k < hw.NumCycleKinds; k++ {
		in.cycles[k] = reg.Counter(fmt.Sprintf("%s_cycles_%s_total", prefix, hw.CycleKind(k)))
	}
	in.rejected = reg.Counter(prefix + "_rejected_issues_total")
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
	reg.GaugeFunc(prefix+"_occupancy", func() float64 { return float64(s.size) })
	reg.GaugeFunc(prefix+"_capacity", func() float64 { return float64(s.capacity) })
	reg.GaugeFunc(prefix+"_inflight_waves", func() float64 { return float64(len(s.next)) })
	for lvl := 1; lvl <= s.l; lvl++ {
		lvl := lvl
		reg.GaugeFunc(fmt.Sprintf("%s_level%d_occupancy", prefix, lvl),
			func() float64 { return float64(s.levelOccupancy(lvl)) })
	}
}

// TraceTo attaches a cycle-trace recorder: every processed wave
// becomes a slice on its level's track (1 cycle = 1 µs in the Chrome
// Trace Event timebase), and total occupancy is emitted as a counter
// track whenever it changes. pid groups this simulator's tracks in
// the viewer. A nil recorder leaves tracing off.
func (s *Sim) TraceTo(tr *obs.TraceRecorder, pid int64) {
	if tr == nil {
		return
	}
	in := s.instrState()
	in.tr = tr
	in.pid = pid
	tr.ProcessName(pid, fmt.Sprintf("R-BMW m=%d l=%d", s.m, s.l))
	for lvl := 1; lvl <= s.l; lvl++ {
		tr.ThreadName(pid, int64(lvl), fmt.Sprintf("level %d", lvl))
	}
}

// level returns the 1-based tree level of a breadth-first node index.
func (s *Sim) level(n int) int {
	lvl, count, start := 1, 1, 0
	for n >= start+count {
		start += count
		count *= s.m
		lvl++
	}
	return lvl
}

// levelOccupancy counts occupied slots at a 1-based level.
func (s *Sim) levelOccupancy(lvl int) int {
	start, count := 0, 1
	for i := 1; i < lvl; i++ {
		start += count
		count *= s.m
	}
	occ := 0
	for n := start; n < start+count; n++ {
		for i := 0; i < s.m; i++ {
			if s.nodes[n*s.m+i].count != 0 {
				occ++
			}
		}
	}
	return occ
}

// classifyCycle buckets a consumed cycle; it must run before the
// cooldown decrements and the wave-queue swap so it sees the state
// the issue decision was made against.
func (s *Sim) classifyCycle(op hw.Op) hw.CycleKind {
	switch op.Kind {
	case hw.Push:
		return hw.CycleIssuePush
	case hw.Pop:
		return hw.CycleIssuePop
	}
	if s.popCooldown > 0 || s.pushCooldown > 0 {
		return hw.CycleStall
	}
	if len(s.next) > 0 {
		return hw.CycleDrain
	}
	return hw.CycleIdle
}

// reject counts a refused issue (handshake or capacity violation —
// the cycle is not consumed) and returns the error unchanged.
func (s *Sim) reject(err error) error {
	if s.instr != nil {
		s.instr.rejected.Inc()
	}
	return err
}

// traceWave emits one processed wave as a trace slice.
func (in *instrumentation) traceWave(cycle uint64, lvl int, push bool) {
	if in.tr == nil {
		return
	}
	name := "pop"
	if push {
		name = "push"
	}
	in.tr.Slice(in.pid, int64(lvl), int64(cycle), 1, name, nil)
}

// endCycle records the per-cycle facts after the cycle's waves have
// been processed.
func (in *instrumentation) endCycle(s *Sim, kind hw.CycleKind) {
	in.cycles[kind].Inc()
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
	if in.tr != nil && s.size != in.lastOcc {
		in.tr.Counter(in.pid, int64(s.cycle), "occupancy", map[string]any{"elements": s.size})
		in.lastOcc = s.size
	}
	// Sojourn quantiles render as a periodic counter track; every 1024
	// cycles keeps the event volume negligible next to the wave slices.
	if in.tr != nil && s.cycle&1023 == 0 {
		in.tr.QuantileCounter(in.pid, int64(s.cycle), "sojourn_cycles", in.sojourn.Snapshot())
	}
}

// SojournSnapshot returns the sojourn-latency distribution collected
// since Instrument was called (the zero snapshot when uninstrumented).
func (s *Sim) SojournSnapshot() obs.QuantileSnapshot { return s.instrSojourn().Snapshot() }

func (s *Sim) instrSojourn() *obs.QuantileHistogram {
	if s.instr == nil {
		return nil
	}
	return s.instr.sojourn
}
