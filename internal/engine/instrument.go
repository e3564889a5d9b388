package engine

import (
	"fmt"

	"repro/internal/obs"
)

// batchBounds are the ops-per-execution histogram buckets: powers of
// two.
var batchBounds = []uint64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// Instrument registers the engine's per-shard probes in reg under the
// metric-name prefix:
//
//	<prefix>_shard<i>_pushes_total / _pops_total   successful operations
//	<prefix>_shard<i>_full_total / _empty_total    queue-level refusals
//	<prefix>_shard<i>_backpressure_total           admission refusals
//	<prefix>_shard<i>_drain_batch                  ops per execution on the shard
//	<prefix>_shard<i>_occupancy / _capacity        queue fill
//	<prefix>_len                                   aggregate length
//
// A refused push counts on the shard it would have gone to. The
// counters are atomics written by the execution lock's holder, so
// the registry is safe to serve over HTTP while the engine is loaded.
// Call before submitting traffic; a nil registry leaves the engine
// uninstrumented.
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
		reg.Help(p+"_drain_batch", "ops one execution applied to the shard")
		s.drained = reg.Histogram(p+"_drain_batch", batchBounds)
		reg.GaugeFunc(p+"_occupancy", func() float64 { return float64(s.length.Load()) })
		reg.GaugeFunc(p+"_capacity", func() float64 { return float64(s.q.Cap()) })
	}
}
