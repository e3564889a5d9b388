package bmw

import (
	"net/http"

	"repro/internal/obs"
)

// Observability facade: the internal/obs subsystem re-exported for
// commands and external users. See DESIGN.md ("Observability") for
// the metric naming scheme and trace track layout.

// MetricsRegistry names and collects counters, gauges and histograms;
// a nil registry disables every probe registered against it.
type MetricsRegistry = obs.Registry

// MetricsSnapshot is a registry's full state at one instant, JSON-
// serializable (the -metrics-out format).
type MetricsSnapshot = obs.Snapshot

// TraceRecorder accumulates Chrome Trace Event / Perfetto JSON cycle
// traces; a nil recorder disables tracing.
type TraceRecorder = obs.TraceRecorder

// QuantileSnapshot is a log-bucketed latency histogram's state at one
// instant, including the estimated p50/p90/p99/p99.9.
type QuantileSnapshot = obs.QuantileSnapshot

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTraceRecorder returns an empty cycle-trace recorder.
func NewTraceRecorder() *TraceRecorder { return obs.NewTraceRecorder() }

// NewMetricsServer builds the metrics endpoint without starting it, so
// commands can drain it gracefully via http.Server.Shutdown.
func NewMetricsServer(addr string, r *MetricsRegistry) *http.Server {
	return obs.NewServerOpts(addr, r, obs.HandlerOptions{})
}

// InstrumentedQueue wraps any PriorityQueue with operation counters
// and an occupancy probe, for implementations that lack native
// instrumentation. The wrapper observes only at the interface: counts
// of successful and rejected operations plus occupancy/capacity from
// Len/Cap.
type InstrumentedQueue struct {
	q        PriorityQueue
	pushes   *obs.Counter
	pops     *obs.Counter
	rejected *obs.Counter
	high     *obs.Gauge
}

// NewInstrumentedQueue registers interface-level probes for q in reg
// under the metric-name prefix and returns the wrapped queue.
func NewInstrumentedQueue(reg *MetricsRegistry, prefix string, q PriorityQueue) *InstrumentedQueue {
	iq := &InstrumentedQueue{
		q:        q,
		pushes:   reg.Counter(prefix + "_pushes_total"),
		pops:     reg.Counter(prefix + "_pops_total"),
		rejected: reg.Counter(prefix + "_rejected_ops_total"),
		high:     reg.Gauge(prefix + "_occupancy_highwater"),
	}
	reg.GaugeFunc(prefix+"_occupancy", func() float64 { return float64(q.Len()) })
	reg.GaugeFunc(prefix+"_capacity", func() float64 { return float64(q.Cap()) })
	return iq
}

// Push forwards to the wrapped queue, counting the outcome.
func (iq *InstrumentedQueue) Push(e Element) error {
	if err := iq.q.Push(e); err != nil {
		iq.rejected.Inc()
		return err
	}
	iq.pushes.Inc()
	iq.high.Max(float64(iq.q.Len()))
	return nil
}

// Pop forwards to the wrapped queue, counting the outcome.
func (iq *InstrumentedQueue) Pop() (Element, error) {
	e, err := iq.q.Pop()
	if err != nil {
		iq.rejected.Inc()
		return e, err
	}
	iq.pops.Inc()
	return e, nil
}

// Peek, Len and Cap forward unchanged.
func (iq *InstrumentedQueue) Peek() (Element, error) { return iq.q.Peek() }
func (iq *InstrumentedQueue) Len() int               { return iq.q.Len() }
func (iq *InstrumentedQueue) Cap() int               { return iq.q.Cap() }

// Unwrap returns the underlying queue.
func (iq *InstrumentedQueue) Unwrap() PriorityQueue { return iq.q }
