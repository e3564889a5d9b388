package bmw

import (
	"io"
	"log/slog"
	"net/http"
	"time"

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

// CycleTrace is a parsed Chrome Trace Event file.
type CycleTrace = obs.Trace

// QuantileHistogram is an HDR-style log-bucketed latency histogram
// with p50/p90/p99/p99.9 estimation; the sojourn probes of the queue
// simulators and netsim feed one each.
type QuantileHistogram = obs.QuantileHistogram

// QuantileSnapshot is a QuantileHistogram's state at one instant,
// including the estimated quantiles.
type QuantileSnapshot = obs.QuantileSnapshot

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewQuantileHistogram returns an unregistered quantile histogram (use
// MetricsRegistry.QuantileHistogram to register one by name).
func NewQuantileHistogram() *QuantileHistogram { return obs.NewQuantileHistogram() }

// NewTraceRecorder returns an empty cycle-trace recorder.
func NewTraceRecorder() *TraceRecorder { return obs.NewTraceRecorder() }

// MetricsHandler serves a registry over HTTP: /metrics (Prometheus
// text), /metrics.json (snapshot JSON), /debug/vars (expvar) and
// /debug/pprof/ (profiles).
func MetricsHandler(r *MetricsRegistry) http.Handler { return obs.Handler(r) }

// ServeMetrics starts the metrics endpoint on addr in a goroutine;
// server errors arrive on the returned channel.
func ServeMetrics(addr string, r *MetricsRegistry) <-chan error { return obs.Serve(addr, r) }

// NewMetricsServer builds the metrics endpoint without starting it, so
// commands can drain it gracefully via http.Server.Shutdown.
func NewMetricsServer(addr string, r *MetricsRegistry) *http.Server { return obs.NewServer(addr, r) }

// ParseCycleTrace decodes Chrome Trace Event JSON (the WriteTo
// output of a TraceRecorder).
func ParseCycleTrace(b []byte) (CycleTrace, error) { return obs.ParseTrace(b) }

// ValidateCycleTrace checks a parsed trace for structural conformance
// with the Chrome Trace Event schema.
func ValidateCycleTrace(tr CycleTrace) error { return obs.ValidateTrace(tr) }

// NewEventLogger builds the structured logger the daemons use: JSON
// records to w at the given level, with repeated identical messages
// suppressed within the window (errors always pass) so a flapping
// follower cannot flood the log.
func NewEventLogger(w io.Writer, level slog.Level, window time.Duration) *slog.Logger {
	return obs.NewEventLogger(w, level, window)
}

// Incident infrastructure: the runtime telemetry poller, SLO burn-rate
// engine and incident-bundle capturer. See DESIGN.md section 5f.

// RuntimeCollector polls runtime/metrics (GC pauses, heap, goroutines,
// scheduling latency) into a registry. Nil-disabled.
type RuntimeCollector = obs.RuntimeCollector

// NewRuntimeCollector builds a runtime collector registering its
// gauges and quantile histograms under prefix; nil registry → nil.
func NewRuntimeCollector(reg *MetricsRegistry, prefix string) *RuntimeCollector {
	return obs.NewRuntimeCollector(reg, prefix)
}

// SLOEngine evaluates declarative objectives with multi-window
// burn-rate states (ok/warn/page). Nil-disabled.
type SLOEngine = obs.SLOEngine

// SLOObjective is one declarative service-level objective.
type SLOObjective = obs.Objective

// SLOOptions parameterise NewSLOEngine.
type SLOOptions = obs.SLOOptions

// SLONames maps a daemon's metric vocabulary into ParseSLOSpec.
type SLONames = obs.SLONames

// NewSLOEngine builds an SLO engine (nil without a source registry or
// objectives).
func NewSLOEngine(opts SLOOptions) *SLOEngine { return obs.NewSLOEngine(opts) }

// ParseSLOSpec parses a comma-separated objective spec such as
// "p99<10ms,availability>0.999,lag<5000".
func ParseSLOSpec(spec string, names SLONames) ([]SLOObjective, error) {
	return obs.ParseSLOSpec(spec, names)
}

// IncidentCapturer writes versioned, self-checksummed incident
// bundles. Nil-disabled.
type IncidentCapturer = obs.IncidentCapturer

// IncidentOptions parameterise NewIncidentCapturer.
type IncidentOptions = obs.IncidentOptions

// IncidentManifest is a bundle's manifest.json document.
type IncidentManifest = obs.IncidentManifest

// NewIncidentCapturer builds a capturer writing bundles under
// opts.Dir (empty Dir → nil, the disabled capturer).
func NewIncidentCapturer(opts IncidentOptions) (*IncidentCapturer, error) {
	return obs.NewIncidentCapturer(opts)
}

// ListIncidentBundles returns the bundle directories under dir,
// oldest first.
func ListIncidentBundles(dir string) ([]string, error) { return obs.ListIncidentBundles(dir) }

// ParseIncidentManifest decodes and structurally validates a bundle
// manifest, including its self-checksum.
func ParseIncidentManifest(b []byte) (IncidentManifest, error) {
	return obs.ParseIncidentManifest(b)
}

// ValidateIncidentBundle checks one bundle directory end to end:
// manifest schema and checksums, required captures present, flight
// record parseable.
func ValidateIncidentBundle(dir string) error { return obs.ValidateIncidentBundle(dir) }

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
