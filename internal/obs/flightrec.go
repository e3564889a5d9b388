// Black-box flight recorder: a fixed-size, lock-free ring of recent
// structured events — finished request spans (every error/slow span,
// a 1-in-N sample of the rest), backpressure edges,
// replication state transitions, WAL fsync stalls, error log records —
// recording continuously at a handful of atomic stores per event, with
// a Dump that snapshots a consistent recent window for incident
// bundles, /flight.json, and post-mortems.
//
// Concurrency model: the cursor is a single atomic counter, so each
// recorded event owns exactly one slot generation. Two writers can
// still meet on one slot when one laps the whole ring while the other
// is mid-write, so a writer claims its slot by swapping seq to a busy
// marker (waiting while another writer holds it), fills the fields,
// then publishes by storing seq=generation+1. A writer that finds a
// newer generation already published there drops its own event, which
// the ring has overwritten anyway. Dump validates seq before and after
// copying and drops slots that changed: fields are written only under
// the claim, so an event is never returned with another's fields.
// Every slot field is an atomic, so concurrent writer/reader access is
// race-detector clean.
package obs

import (
	"encoding/json"
	"io"
	"runtime"
	"sync/atomic"
	"time"
)

// FlightKind classifies one flight-recorder event.
type FlightKind uint8

// Flight event kinds. The A/B/C payload meaning is per-kind and
// documented on each constant; Msg carries free-form identity (an
// objective name, a log message) where one applies.
const (
	// FlightSpan is a finished request span: A = track (connection id),
	// B = whole-span latency ns, C = 1 error / 2 slow / 0 sampled-in.
	FlightSpan FlightKind = iota + 1
	// FlightBackpressure is an almost-full edge: A = shard,
	// B = 1 asserted / 0 cleared, C = queue length.
	FlightBackpressure
	// FlightReplState is a replication state transition; Msg names the
	// transition (attached, caught_up, detached, promoted, degraded,
	// stream_fatal, refused), A/B carry transition-specific detail
	// (typically LSN/lag).
	FlightReplState
	// FlightWALStall is a WAL fsync exceeding the stall threshold:
	// A = fsync ns, B = threshold ns.
	FlightWALStall
	// FlightLogError is an error-level structured log record; Msg is
	// the log message.
	FlightLogError
	// FlightReady is a readiness flip: A = 1 ready / 0 unready.
	FlightReady
	// FlightSLO is an SLO burn-rate state change; Msg names the
	// objective, Code is the new SLOState, A = float64 bits of the
	// measured value, B = float64 bits of the bound.
	FlightSLO
	// FlightGCPause is a GC pause past the runtime collector's stall
	// threshold: A = pause ns (bucket upper bound), B = threshold ns.
	FlightGCPause
	// FlightIncident marks an incident capture; Msg is the trigger.
	FlightIncident
	// FlightIntegrity is a durable-state corruption detection (scrub or
	// recovery): Msg classifies it, A/B carry the LSN range or
	// seq/chunk-count the detector localised.
	FlightIntegrity
)

// flightKindNames spell the kinds in dumps.
var flightKindNames = map[FlightKind]string{
	FlightSpan:         "span",
	FlightBackpressure: "backpressure",
	FlightReplState:    "repl_state",
	FlightWALStall:     "wal_stall",
	FlightLogError:     "log_error",
	FlightReady:        "ready",
	FlightSLO:          "slo",
	FlightGCPause:      "gc_pause",
	FlightIncident:     "incident",
	FlightIntegrity:    "integrity",
}

// String names the kind ("kind_<n>" for unknown values).
func (k FlightKind) String() string {
	if s, ok := flightKindNames[k]; ok {
		return s
	}
	return "kind_unknown"
}

// flightSlot is one ring slot. All fields are atomics so writers and
// Dump never race at the memory-model level; seq is the publication
// tag (generation+1, 0 before the first write, slotBusy while a writer
// owns the slot).
type flightSlot struct {
	seq atomic.Uint64
	ts  atomic.Int64  // SpanNow at record time
	kc  atomic.Uint64 // kind | code<<8
	a   atomic.Uint64
	b   atomic.Uint64
	c   atomic.Uint64
	msg atomic.Pointer[string]
}

// slotBusy is the seq of a slot a writer has claimed; no generation
// reaches it.
const slotBusy = ^uint64(0)

// FlightRecorder is the black-box ring. Nil-disabled like every obs
// probe: Record on a nil recorder is a no-op costing one branch.
type FlightRecorder struct {
	slots  []flightSlot
	mask   uint64
	cursor atomic.Uint64
}

// NewFlightRecorder builds a recorder holding the most recent `size`
// events (rounded up to a power of two, minimum 64). A size <= 0
// returns nil — the disabled recorder.
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		return nil
	}
	n := 64
	for n < size {
		n <<= 1
	}
	return &FlightRecorder{slots: make([]flightSlot, n), mask: uint64(n - 1)}
}

// Size returns the ring capacity (0 on nil).
func (f *FlightRecorder) Size() int {
	if f == nil {
		return 0
	}
	return len(f.slots)
}

// Recorded returns the total events recorded since construction,
// including those already overwritten (0 on nil).
func (f *FlightRecorder) Recorded() uint64 {
	if f == nil {
		return 0
	}
	return f.cursor.Load()
}

// Record appends one event. Safe for concurrent use from any
// goroutine; no-op on nil.
func (f *FlightRecorder) Record(kind FlightKind, code int32, a, b, c uint64) {
	f.record(kind, code, a, b, c, nil)
}

// RecordMsg is Record with a free-form message (one allocation for the
// string header indirection — keep it off per-op hot paths).
func (f *FlightRecorder) RecordMsg(kind FlightKind, code int32, msg string, a, b, c uint64) {
	f.record(kind, code, a, b, c, &msg)
}

func (f *FlightRecorder) record(kind FlightKind, code int32, a, b, c uint64, msg *string) {
	if f == nil {
		return
	}
	gen := f.cursor.Add(1) - 1
	s := &f.slots[gen&f.mask]
	for {
		cur := s.seq.Load()
		if cur == slotBusy {
			runtime.Gosched() // a lapping writer holds the slot
			continue
		}
		if cur > gen+1 {
			return // a newer generation already overwrote this event
		}
		if s.seq.CompareAndSwap(cur, slotBusy) {
			break
		}
	}
	s.ts.Store(SpanNow())
	s.kc.Store(uint64(kind) | uint64(uint32(code))<<8)
	s.a.Store(a)
	s.b.Store(b)
	s.c.Store(c)
	s.msg.Store(msg)
	s.seq.Store(gen + 1) // publish
}

// Instrument registers the recorder's event counter and ring size
// under prefix.
func (f *FlightRecorder) Instrument(reg *Registry, prefix string) {
	if f == nil || reg == nil {
		return
	}
	reg.Help(prefix+"_events_total", "flight-recorder events recorded (including overwritten)")
	reg.CounterFunc(prefix+"_events_total", f.Recorded)
	reg.Help(prefix+"_ring_size", "flight-recorder ring capacity in events")
	reg.GaugeFunc(prefix+"_ring_size", func() float64 { return float64(f.Size()) })
}

// FlightEvent is one dumped event. TS is monotonic nanoseconds since
// the recording process's span epoch; FlightDump.CapturedTS anchors it
// to CapturedAt wall time.
type FlightEvent struct {
	Seq  uint64 `json:"seq"`
	TS   int64  `json:"ts_ns"`
	Kind string `json:"kind"`
	Code int32  `json:"code,omitempty"`
	A    uint64 `json:"a,omitempty"`
	B    uint64 `json:"b,omitempty"`
	C    uint64 `json:"c,omitempty"`
	Msg  string `json:"msg,omitempty"`
}

// FlightDump is the versioned dump document: the recent event window,
// oldest first, plus the wall/monotonic anchor pair that converts
// event timestamps to wall time (wall ≈ CapturedAt - (CapturedTS-TS)).
type FlightDump struct {
	Schema     string        `json:"schema"`
	CapturedAt time.Time     `json:"captured_at"`
	CapturedTS int64         `json:"captured_ts_ns"`
	Recorded   uint64        `json:"recorded_total"`
	Dropped    int           `json:"dropped_torn,omitempty"`
	Events     []FlightEvent `json:"events"`
}

// FlightDumpSchema versions the dump document.
const FlightDumpSchema = "bmwflight/v1"

// Dump snapshots the recent window: every slot whose generation still
// matches its publication tag, oldest first. Slots overwritten or torn
// by concurrent writers during the dump are dropped (counted in
// Dropped), never returned corrupt. A nil recorder dumps an empty
// document.
func (f *FlightRecorder) Dump() FlightDump {
	d := FlightDump{
		Schema:     FlightDumpSchema,
		CapturedAt: time.Now(),
		CapturedTS: SpanNow(),
	}
	if f == nil {
		return d
	}
	end := f.cursor.Load()
	d.Recorded = end
	start := uint64(0)
	if n := uint64(len(f.slots)); end > n {
		start = end - n
	}
	d.Events = make([]FlightEvent, 0, end-start)
	for gen := start; gen < end; gen++ {
		s := &f.slots[gen&f.mask]
		if s.seq.Load() != gen+1 {
			d.Dropped++
			continue
		}
		ev := FlightEvent{Seq: gen, TS: s.ts.Load()}
		kc := s.kc.Load()
		ev.Kind = FlightKind(kc & 0xff).String()
		ev.Code = int32(uint32(kc >> 8))
		ev.A = s.a.Load()
		ev.B = s.b.Load()
		ev.C = s.c.Load()
		if p := s.msg.Load(); p != nil {
			ev.Msg = *p
		}
		if s.seq.Load() != gen+1 { // torn by a concurrent writer
			d.Dropped++
			continue
		}
		d.Events = append(d.Events, ev)
	}
	return d
}

// WriteJSON writes the dump as JSON to w.
func (d FlightDump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}

// ParseFlightDump decodes and sanity-checks a dump document.
func ParseFlightDump(b []byte) (FlightDump, error) {
	var d FlightDump
	if err := json.Unmarshal(b, &d); err != nil {
		return d, err
	}
	if d.Schema != FlightDumpSchema {
		return d, errSchema("flight dump", d.Schema, FlightDumpSchema)
	}
	return d, nil
}
