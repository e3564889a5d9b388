// Structured event logging for the long-running daemons: log/slog JSON
// lines with rate-limited repeat suppression, so a flapping condition
// (a follower redialing a dead primary at 50ms backoff, a client
// hammering an overloaded shard) produces one line plus a periodic
// "suppressed N repeats" summary instead of megabytes of identical
// output.
package obs

import (
	"context"
	"io"
	"log/slog"
	"sync"
	"time"
)

// suppressState tracks one (level, message) key's repeat window.
type suppressState struct {
	windowStart time.Time
	suppressed  int
	lastSeen    time.Time
}

// DedupHandler wraps a slog.Handler with repeat suppression: a record
// whose (level, message) pair was already emitted within Window is
// counted and dropped; the next record past the window is emitted with
// a "suppressed" attribute carrying the dropped count. Records at or
// above BypassLevel always pass through.
type DedupHandler struct {
	inner  slog.Handler
	window time.Duration
	bypass slog.Level
	now    func() time.Time

	mu   sync.Mutex
	seen map[string]*suppressState
}

// maxDedupKeys bounds the suppression table; past it the stalest keys
// are evicted so an unbounded message vocabulary cannot leak memory.
const maxDedupKeys = 1024

// NewDedupHandler wraps inner with repeat suppression over window
// (default 5s). Records at or above bypass always pass (use
// slog.LevelError to keep every error line).
func NewDedupHandler(inner slog.Handler, window time.Duration, bypass slog.Level) *DedupHandler {
	if window <= 0 {
		window = 5 * time.Second
	}
	return &DedupHandler{
		inner:  inner,
		window: window,
		bypass: bypass,
		now:    time.Now,
		seen:   make(map[string]*suppressState),
	}
}

// Enabled forwards to the wrapped handler.
func (h *DedupHandler) Enabled(ctx context.Context, l slog.Level) bool {
	return h.inner.Enabled(ctx, l)
}

// Handle emits the record unless an identical (level, message) line was
// emitted within the window; the first emission after a suppressed
// stretch carries a "suppressed" count attribute.
func (h *DedupHandler) Handle(ctx context.Context, r slog.Record) error {
	if r.Level >= h.bypass {
		return h.inner.Handle(ctx, r)
	}
	key := r.Level.String() + "\x00" + r.Message
	now := h.now()
	h.mu.Lock()
	st := h.seen[key]
	if st == nil {
		if len(h.seen) >= maxDedupKeys {
			h.evictStale(now)
		}
		st = &suppressState{windowStart: now}
		h.seen[key] = st
		st.lastSeen = now
		h.mu.Unlock()
		return h.inner.Handle(ctx, r)
	}
	st.lastSeen = now
	if now.Sub(st.windowStart) < h.window {
		st.suppressed++
		h.mu.Unlock()
		return nil
	}
	n := st.suppressed
	st.windowStart = now
	st.suppressed = 0
	h.mu.Unlock()
	if n > 0 {
		r.AddAttrs(slog.Int("suppressed", n))
	}
	return h.inner.Handle(ctx, r)
}

// evictStale drops the half of the table least recently seen. Callers
// hold mu.
func (h *DedupHandler) evictStale(now time.Time) {
	cutoff := now.Add(-h.window)
	for k, st := range h.seen {
		if st.lastSeen.Before(cutoff) {
			delete(h.seen, k)
		}
	}
	// Vocabulary genuinely this wide within one window: drop
	// arbitrarily rather than grow without bound.
	for k := range h.seen {
		if len(h.seen) < maxDedupKeys/2 {
			break
		}
		delete(h.seen, k)
	}
}

// WithAttrs forwards to the wrapped handler; the suppression table is
// shared so "same message, different attrs" still dedups (attrs carry
// the varying detail; the message is the event identity).
func (h *DedupHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &DedupHandler{
		inner:  h.inner.WithAttrs(attrs),
		window: h.window,
		bypass: h.bypass,
		now:    h.now,
		seen:   h.seen, // shared: same event identity across attr sets
	}
}

// WithGroup forwards to the wrapped handler.
func (h *DedupHandler) WithGroup(name string) slog.Handler {
	return &DedupHandler{
		inner:  h.inner.WithGroup(name),
		window: h.window,
		bypass: h.bypass,
		now:    h.now,
		seen:   h.seen,
	}
}

// flightLogHandler mirrors error-level records into a flight recorder
// on their way to the wrapped handler, so the black box holds the
// daemon's recent error lines next to the spans and state edges they
// correlate with.
type flightLogHandler struct {
	inner slog.Handler
	fr    *FlightRecorder
}

func (h *flightLogHandler) Enabled(ctx context.Context, l slog.Level) bool {
	return h.inner.Enabled(ctx, l)
}

func (h *flightLogHandler) Handle(ctx context.Context, r slog.Record) error {
	if r.Level >= slog.LevelError {
		h.fr.RecordMsg(FlightLogError, int32(r.Level), r.Message, 0, 0, 0)
	}
	return h.inner.Handle(ctx, r)
}

func (h *flightLogHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &flightLogHandler{inner: h.inner.WithAttrs(attrs), fr: h.fr}
}

func (h *flightLogHandler) WithGroup(name string) slog.Handler {
	return &flightLogHandler{inner: h.inner.WithGroup(name), fr: h.fr}
}

// WithFlightRecorder wraps a handler so error-level records are also
// recorded as FlightLogError events. A nil recorder returns inner
// unchanged.
func WithFlightRecorder(inner slog.Handler, fr *FlightRecorder) slog.Handler {
	if fr == nil {
		return inner
	}
	return &flightLogHandler{inner: inner, fr: fr}
}

// NewEventLoggerFlight builds the daemons' standard structured logger:
// JSON records to w at the given level, identical lines suppressed
// within window (default 5s), errors never suppressed. Error-level
// records are also mirrored into fr (errors bypass dedup, so the black
// box sees every error line the logger emits); a nil fr mirrors
// nothing.
func NewEventLoggerFlight(w io.Writer, level slog.Leveler, window time.Duration, fr *FlightRecorder) *slog.Logger {
	inner := slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level})
	return slog.New(NewDedupHandler(WithFlightRecorder(inner, fr), window, slog.LevelError))
}
