package engine

import (
	"fmt"

	"repro/internal/obs"
)

// ringBounds are the drain-size/occupancy histogram buckets: powers of
// two up to the largest ring the defaults allow.
var ringBounds = []uint64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// Instrument registers the engine's per-shard probes in reg under the
// metric-name prefix:
//
//	<prefix>_shard<i>_pushes_total / _pops_total   successful operations
//	<prefix>_shard<i>_full_total / _empty_total    queue-level refusals
//	<prefix>_shard<i>_backpressure_total           admission refusals
//	<prefix>_shard<i>_ring_occupancy               ring depth at each ring drain
//	<prefix>_shard<i>_drain_batch                  requests per execution, inline or ring
//	<prefix>_shard<i>_occupancy / _capacity        queue fill
//	<prefix>_len                                   aggregate length
//
// _drain_batch counts every execution and _ring_occupancy only those
// that came off the ring, so the difference of their counts is the
// number of inline executions. The counters are atomics written by the
// execution lock's holder, so the registry is safe to serve over HTTP
// while the engine is loaded. Call before
// submitting traffic; a nil registry leaves the engine uninstrumented.
func (e *Engine) Instrument(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.GaugeFunc(prefix+"_len", func() float64 { return float64(e.Len()) })
	reg.GaugeFunc(prefix+"_shards", func() float64 { return float64(len(e.shards)) })
	for _, s := range e.shards {
		s := s
		p := fmt.Sprintf("%s_shard%d", prefix, s.id)
		s.pushes = reg.Counter(p + "_pushes_total")
		s.pops = reg.Counter(p + "_pops_total")
		s.fulls = reg.Counter(p + "_full_total")
		s.empties = reg.Counter(p + "_empty_total")
		s.backpressured = reg.Counter(p + "_backpressure_total")
		s.shed = reg.Counter(p + "_overload_shed_total")
		reg.GaugeFunc(p+"_overloaded", func() float64 {
			if s.overloaded.Load() {
				return 1
			}
			return 0
		})
		reg.Help(p+"_ring_occupancy", "request-ring depth observed at each ring drain (inline executions are not counted)")
		s.ringOcc = reg.Histogram(p+"_ring_occupancy", ringBounds)
		reg.Help(p+"_drain_batch", "requests per execution, inline on a submitter or drained from the ring")
		s.drained = reg.Histogram(p+"_drain_batch", ringBounds)
		reg.GaugeFunc(p+"_occupancy", func() float64 { return float64(s.length.Load()) })
		reg.GaugeFunc(p+"_capacity", func() float64 { return float64(s.q.Cap()) })
	}
}
