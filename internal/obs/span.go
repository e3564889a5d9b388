// Request-lifecycle tracing: a Span carries monotonic stage timestamps
// for one serving-stack request (client issue → frame decode → shard
// enqueue → shard dequeue → queue apply → log/WAL group-commit →
// replica ack → response write) as it crosses the wire server, the
// engine shards, and the replication layer. A Tracer owns a pool of
// spans (zero allocation steady-state), feeds every finished span's
// stage segments into per-stage QuantileHistograms, and exports a
// probabilistic 1-in-N sample of spans to a Chrome-trace TraceRecorder
// (one track per connection), so a live daemon can answer "where does
// p99 live" at any moment.
//
// Like every obs probe, the whole subsystem is nil-disabled: a nil
// Tracer returns nil Spans, and every Span/Tracer method is a no-op on
// a nil receiver, so an untraced server pays one pointer-nil branch
// per request and the engine pays one per operation.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage indexes one lifecycle timestamp inside a Span. Stages are
// stamped in pipeline order; a stage that does not apply to a request's
// outcome (e.g. no shard ever dequeued a fully-refused batch) is simply
// left unstamped and its segment is attributed to the next stamped
// stage.
type Stage uint8

// Request lifecycle stages, in pipeline order.
const (
	// StageIssue is the span origin: the moment the server turned to
	// this request (for a loaded connection, when it finished the
	// previous frame), or the client's scheduled issue time for
	// client-side spans.
	StageIssue Stage = iota
	// StageDecode: the frame is fully read, CRC-checked and parsed.
	StageDecode
	// StageEnqueue: the request's operations are headed for the engine
	// (stamped immediately before its execution lock is requested).
	StageEnqueue
	// StageDequeue: the request started executing, on the submitter,
	// once it holds that lock: enqueue → dequeue is the wait for it, all
	// but zero when nobody else held it.
	StageDequeue
	// StageApply: the last of the request's operations has executed
	// against its shard queue.
	StageApply
	// StageCommit: the request's mutations are appended to the
	// replication log / WAL group-commit (zero-width when the server
	// runs without replication or persistence).
	StageCommit
	// StageAck: the synchronous-replication follower acknowledgment
	// arrived (zero-width in async or standalone mode).
	StageAck
	// StageWrite: the response bytes went to the connection.
	StageWrite
	// NumStages is the stage count; Span timestamp arrays have this
	// length.
	NumStages
)

// stageNames spell the stages as metric-name components and trace
// slice names.
var stageNames = [NumStages]string{
	"issue", "decode", "enqueue", "dequeue", "apply", "commit", "ack", "write",
}

// String names the stage.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "invalid"
}

// spanEpoch anchors SpanNow: timestamps are monotonic nanoseconds since
// process start, so stamps taken on different goroutines still order by
// real time (the wall clock may step; the monotonic clock does not).
var spanEpoch = time.Now()

// SpanNow returns the current monotonic span timestamp in nanoseconds
// since process start.
func SpanNow() int64 { return int64(time.Since(spanEpoch)) }

// Span is one request's stage-timestamp record. Fields are atomics
// because stages are stamped from different goroutines (the connection
// reader, which also runs the engine's stamps, and the connection
// writer); every stamp is first-wins, so a stage stamped again (each
// shard a batch touches stamps dequeue) keeps the earliest event. The zero value is usable but spans
// normally come from a Tracer's pool via Begin and return to it via
// Finish.
type Span struct {
	ts      [NumStages]atomic.Int64
	track   int64
	sampled bool
	erred   atomic.Bool
}

// MarkError flags the span as carrying a failed operation; the flight
// recorder admits errored spans unconditionally. Nil-safe.
func (sp *Span) MarkError() {
	if sp != nil {
		sp.erred.Store(true)
	}
}

// Stamp records SpanNow for the stage if it is not already stamped.
// No-op on a nil span. The load-before-CAS guard keeps repeated stamps
// (every shard a batch touches stamps StageDequeue) cheap: once the
// stage is set, later calls cost one read instead of a clock read plus
// an atomic read-modify-write.
func (sp *Span) Stamp(st Stage) {
	if sp == nil || sp.ts[st].Load() != 0 {
		return
	}
	sp.ts[st].CompareAndSwap(0, SpanNow())
}

// StampAt records an explicit timestamp (from SpanNow) for the stage if
// it is not already stamped. No-op on a nil span. Adjacent zero-width
// stamps can share one SpanNow read.
func (sp *Span) StampAt(st Stage, ns int64) {
	if sp == nil || ns == 0 || sp.ts[st].Load() != 0 {
		return
	}
	sp.ts[st].CompareAndSwap(0, ns)
}

// Stages returns the stamped timestamps (0 = unstamped). Nil-safe.
func (sp *Span) Stages() [NumStages]int64 {
	var out [NumStages]int64
	if sp == nil {
		return out
	}
	for i := range out {
		out[i] = sp.ts[i].Load()
	}
	return out
}

// Track returns the trace track (connection) id the span was begun on.
func (sp *Span) Track() int64 {
	if sp == nil {
		return 0
	}
	return sp.track
}

// reset clears the span for pool reuse.
func (sp *Span) reset() {
	for i := range sp.ts {
		sp.ts[i].Store(0)
	}
	sp.track = 0
	sp.sampled = false
	sp.erred.Store(false)
}

// TracerOptions parameterise NewTracer.
type TracerOptions struct {
	// Registry receives the per-stage quantile histograms (named
	// <Prefix>_stage_<stage>_ns, plus <Prefix>_stage_total_ns) and the
	// span counters. Nil disables the aggregate side.
	Registry *Registry
	// Prefix is the metric-name prefix (e.g. "bmwd_trace").
	Prefix string
	// Recorder receives sampled spans as Chrome-trace slices, one
	// track (tid) per connection under TracePID. Nil disables export.
	Recorder *TraceRecorder
	// SampleEvery exports one of every N finished spans to Recorder
	// (1 = every span, 0 disables sampling even with a Recorder).
	SampleEvery int
	// TracePID is the Chrome-trace process id sampled spans land
	// under (default 1).
	TracePID int64
	// Flight, when set, receives finished spans as FlightSpan events:
	// every errored or slow span, plus one in FlightSampleEvery of the
	// rest — the black-box admission policy.
	Flight *FlightRecorder
	// FlightSlowNs is the whole-span latency at or above which a span
	// counts as slow (default 25ms).
	FlightSlowNs int64
	// FlightSampleEvery admits one in N unremarkable spans to the
	// flight recorder (default 64; 0 keeps the default).
	FlightSampleEvery int
}

// Tracer mints, aggregates and recycles request spans. Nil-disabled
// like every obs probe.
type Tracer struct {
	// stageQ[0] holds the whole-span (issue→last stamp) latency;
	// stageQ[i>0] holds the segment ending at stage i.
	stageQ  [NumStages]*QuantileHistogram
	rec     *TraceRecorder
	every   uint64
	pid     int64
	nth     atomic.Uint64
	pool    sync.Pool
	started *Counter
	sampled *Counter

	flight      *FlightRecorder
	flightSlow  int64
	flightEvery uint64
	flightNth   atomic.Uint64

	// OnFinish, when set, observes every finished span's track and
	// stamped timestamps before the span returns to the pool — a test
	// and tooling hook, called synchronously from Finish.
	OnFinish func(track int64, ts [NumStages]int64)
}

// StageMetricName returns the registry name of one stage's segment
// histogram under prefix; stage StageIssue names the whole-span total.
func StageMetricName(prefix string, st Stage) string {
	if st == StageIssue {
		return prefix + "_stage_total_ns"
	}
	return prefix + "_stage_" + st.String() + "_ns"
}

// StageMetricNames returns all eight per-stage metric names under
// prefix, in stage order (total first).
func StageMetricNames(prefix string) []string {
	names := make([]string, NumStages)
	for st := Stage(0); st < NumStages; st++ {
		names[st] = StageMetricName(prefix, st)
	}
	return names
}

// NewTracer builds a tracer. It returns nil — the disabled tracer —
// when opts carries no registry, recorder, or flight recorder.
func NewTracer(opts TracerOptions) *Tracer {
	if opts.Registry == nil && opts.Recorder == nil && opts.Flight == nil {
		return nil
	}
	t := &Tracer{
		rec:        opts.Recorder,
		pid:        opts.TracePID,
		flight:     opts.Flight,
		flightSlow: opts.FlightSlowNs,
	}
	if opts.Flight != nil {
		if t.flightSlow <= 0 {
			t.flightSlow = 25 * 1e6
		}
		t.flightEvery = 64
		if opts.FlightSampleEvery > 0 {
			t.flightEvery = uint64(opts.FlightSampleEvery)
		}
	}
	if t.pid == 0 {
		t.pid = 1
	}
	if opts.Recorder != nil && opts.SampleEvery > 0 {
		t.every = uint64(opts.SampleEvery)
		opts.Recorder.ProcessName(t.pid, "requests")
	}
	if reg := opts.Registry; reg != nil {
		prefix := opts.Prefix
		if prefix == "" {
			prefix = "trace"
		}
		reg.Help(StageMetricName(prefix, StageIssue),
			"whole-request latency from issue to last recorded stage")
		for st := Stage(0); st < NumStages; st++ {
			if st > StageIssue {
				reg.Help(StageMetricName(prefix, st),
					"request latency segment ending at stage "+st.String())
			}
			t.stageQ[st] = reg.QuantileHistogram(StageMetricName(prefix, st))
		}
		t.started = reg.Counter(prefix + "_spans_total")
		t.sampled = reg.Counter(prefix + "_spans_sampled_total")
	}
	t.pool.New = func() any { return new(Span) }
	return t
}

// NameTrack labels a trace track (connection) for the viewers; no-op
// without a recorder.
func (t *Tracer) NameTrack(track int64, name string) {
	if t == nil || t.rec == nil || t.every == 0 {
		return
	}
	t.rec.ThreadName(t.pid, track, name)
}

// Begin mints a span on the given track whose StageIssue is issueNs (a
// SpanNow value taken by the caller; 0 means "now"). A nil tracer
// returns a nil span, on which every method is a no-op.
func (t *Tracer) Begin(track int64, issueNs int64) *Span {
	if t == nil {
		return nil
	}
	sp := t.pool.Get().(*Span)
	sp.track = track
	if issueNs == 0 {
		issueNs = SpanNow()
	}
	sp.ts[StageIssue].Store(issueNs)
	t.started.Inc()
	if t.every > 0 && t.nth.Add(1)%t.every == 0 {
		sp.sampled = true
		t.sampled.Inc()
	}
	return sp
}

// Finish records the span's stage segments into the per-stage
// histograms, exports it to the trace recorder when it was sampled,
// and returns it to the pool. The caller must not touch the span
// afterwards. Nil tracer or span: no-op.
func (t *Tracer) Finish(sp *Span) {
	if t == nil || sp == nil {
		return
	}
	ts := sp.Stages()
	issue := ts[StageIssue]
	prev := issue
	last := issue
	for st := StageDecode; st < NumStages; st++ {
		v := ts[st]
		if v == 0 {
			continue
		}
		d := v - prev
		if d < 0 {
			d = 0
		}
		t.stageQ[st].Observe(uint64(d))
		prev, last = v, v
	}
	if issue != 0 && last >= issue {
		t.stageQ[StageIssue].Observe(uint64(last - issue))
	}
	if t.flight != nil {
		total := int64(0)
		if issue != 0 && last >= issue {
			total = last - issue
		}
		// Admission: every errored span, every slow span, one in N of
		// the rest — the black box always holds the interesting tail.
		switch {
		case sp.erred.Load():
			t.flight.Record(FlightSpan, 0, uint64(sp.track), uint64(total), 1)
		case total >= t.flightSlow:
			t.flight.Record(FlightSpan, 0, uint64(sp.track), uint64(total), 2)
		case t.flightNth.Add(1)%t.flightEvery == 0:
			t.flight.Record(FlightSpan, 0, uint64(sp.track), uint64(total), 0)
		}
	}
	if sp.sampled && t.rec != nil {
		t.export(sp.track, ts)
	}
	if t.OnFinish != nil {
		t.OnFinish(sp.track, ts)
	}
	sp.reset()
	t.pool.Put(sp)
}

// export renders one sampled span as Chrome-trace slices: each stamped
// segment becomes an X slice named after its ending stage, on the
// span's connection track, in microseconds since process start.
func (t *Tracer) export(track int64, ts [NumStages]int64) {
	prev := ts[StageIssue]
	for st := StageDecode; st < NumStages; st++ {
		v := ts[st]
		if v == 0 {
			continue
		}
		t.rec.Slice(t.pid, track, prev/1e3, (v-prev)/1e3, st.String(), nil)
		prev = v
	}
}
