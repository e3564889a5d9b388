package main

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed call from the benchmark into a layer. parent is the
// index+1 of the enclosing span (0 for a batch's root span); every span
// of one batch carries the batch's request id.
type span struct {
	startNs, endNs   int64
	parent, req, tid int32
	name             int32 // index into spanRec.names
}

// maxTraceFileSpans bounds what is written to the trace file; spans past
// it still count toward the rung timings, and the file says how many
// were left out.
const maxTraceFileSpans = 200_000

// spanRec is the benchmark's own in-memory span recorder: spans are
// appended while a traced rung runs and written out once, at exit. A
// nil recorder records nothing, which is the untraced run.
type spanRec struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	reqs  int32
	// Span names are interned so that the span array holds no pointers
	// and the collector never scans it.
	names []string
	index map[string]int32
}

func newSpanRec() *spanRec { return &spanRec{epoch: time.Now(), index: map[string]int32{}} }

// newReq mints the request id shared by one batch's spans.
func (r *spanRec) newReq() int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.reqs++
	id := r.reqs
	r.mu.Unlock()
	return id
}

// begin opens a span and returns its handle (index+1), usable as a
// parent for child spans.
func (r *spanRec) begin(name string, parent, req, tid int32) int32 {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	id, ok := r.index[name]
	if !ok {
		id = int32(len(r.names))
		r.names = append(r.names, name)
		r.index[name] = id
	}
	r.spans = append(r.spans, span{name: id, startNs: now, parent: parent, req: req, tid: tid})
	h := int32(len(r.spans))
	r.mu.Unlock()
	return h
}

func (r *spanRec) end(h int32) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[h-1].endNs = now
	r.mu.Unlock()
}

// write flushes the spans as Chrome-trace JSON: one complete ("X")
// slice per span on the track of the caller that made it, with the raw
// nanosecond bounds, parent and request id in args.
func (r *spanRec) write(path string) error {
	rec := obs.NewTraceRecorder()
	rec.ProcessName(1, "benchmark ladder")
	n := len(r.spans)
	if n > maxTraceFileSpans {
		n = maxTraceFileSpans
	}
	for _, s := range r.spans[:n] {
		rec.Slice(1, int64(s.tid), s.startNs/1e3, (s.endNs-s.startNs)/1e3, r.names[s.name], map[string]any{
			"start_ns": s.startNs, "end_ns": s.endNs, "parent": s.parent, "req": s.req,
		})
	}
	rec.Instant(1, 0, 0, "spans", map[string]any{"recorded": len(r.spans), "written": n})
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		return err
	}
	tr, err := obs.ParseTrace(buf.Bytes())
	if err != nil {
		return fmt.Errorf("trace does not parse back: %w", err)
	}
	if err := obs.ValidateTrace(tr); err != nil {
		return fmt.Errorf("trace failed obs.ValidateTrace: %w", err)
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
