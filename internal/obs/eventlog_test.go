package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// logLines decodes one JSON record per line.
func logLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

func TestDedupHandlerSuppresses(t *testing.T) {
	var buf bytes.Buffer
	h := NewDedupHandler(slog.NewJSONHandler(&buf, nil), time.Minute, slog.LevelError)
	now := time.Unix(0, 0)
	h.now = func() time.Time { return now }
	lg := slog.New(h)

	for i := 0; i < 10; i++ {
		lg.Info("follower reconnect", "attempt", i)
	}
	lines := logLines(t, &buf)
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1 (repeats suppressed)", len(lines))
	}

	// Past the window the next record flushes with the suppressed count.
	now = now.Add(2 * time.Minute)
	lg.Info("follower reconnect", "attempt", 10)
	lines = logLines(t, &buf)
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if got, ok := lines[1]["suppressed"].(float64); !ok || got != 9 {
		t.Fatalf("suppressed attr = %v, want 9", lines[1]["suppressed"])
	}
}

func TestDedupHandlerDistinctMessagesPass(t *testing.T) {
	var buf bytes.Buffer
	lg := slog.New(NewDedupHandler(slog.NewJSONHandler(&buf, nil), time.Minute, slog.LevelError))
	lg.Info("msg one")
	lg.Info("msg two")
	lg.Warn("msg one") // different level: distinct key
	if lines := logLines(t, &buf); len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
}

func TestDedupHandlerErrorsBypass(t *testing.T) {
	var buf bytes.Buffer
	lg := slog.New(NewDedupHandler(slog.NewJSONHandler(&buf, nil), time.Minute, slog.LevelError))
	for i := 0; i < 5; i++ {
		lg.Error("disk on fire", "i", i)
	}
	if lines := logLines(t, &buf); len(lines) != 5 {
		t.Fatalf("got %d error lines, want 5 (errors never suppressed)", len(lines))
	}
}

func TestDedupHandlerEviction(t *testing.T) {
	var buf bytes.Buffer
	h := NewDedupHandler(slog.NewJSONHandler(&buf, nil), time.Minute, slog.LevelError)
	lg := slog.New(h)
	for i := 0; i < maxDedupKeys+100; i++ {
		lg.Info("unique message " + string(rune('a'+i%26)) + "-" + time.Duration(i).String())
	}
	h.mu.Lock()
	n := len(h.seen)
	h.mu.Unlock()
	if n > maxDedupKeys {
		t.Fatalf("dedup table grew to %d keys, cap %d", n, maxDedupKeys)
	}
}

func TestEventLoggerConcurrent(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	lg := NewEventLoggerFlight(w, slog.LevelInfo, time.Minute, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				lg.Info("hot event", "g", g, "i", i)
			}
		}(g)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if lines := logLines(t, &buf); len(lines) != 1 {
		t.Fatalf("got %d lines from 800 identical events, want 1", len(lines))
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestDedupHandlerEvictionBoundary pins the 1024-key table boundary:
// filling the table to exactly maxDedupKeys evicts nothing, the next
// distinct key triggers eviction, keys seen within the window survive
// it, and suppression state for surviving keys is preserved across the
// eviction.
func TestDedupHandlerEvictionBoundary(t *testing.T) {
	var buf bytes.Buffer
	h := NewDedupHandler(slog.NewJSONHandler(&buf, nil), time.Minute, slog.LevelError)
	now := time.Unix(0, 0)
	h.now = func() time.Time { return now }
	lg := slog.New(h)

	// A hot key with accumulated suppression state.
	lg.Info("hot key")
	for i := 0; i < 7; i++ {
		lg.Info("hot key")
	}

	// Stale vocabulary: filled early, never seen again.
	for i := 0; i < maxDedupKeys-1; i++ {
		lg.Info("stale-" + strconv.Itoa(i))
	}
	h.mu.Lock()
	n := len(h.seen)
	h.mu.Unlock()
	if n != maxDedupKeys {
		t.Fatalf("table holds %d keys after exactly %d distinct messages", n, maxDedupKeys)
	}

	// Advance past the window, refresh the hot key (suppressed=7
	// flushes; its state survives as the recently-seen entry), then one
	// more distinct key forces the eviction pass: every stale key is
	// outside the window and is dropped, the hot key is not.
	now = now.Add(2 * time.Minute)
	lg.Info("hot key")
	lg.Info("fresh key")
	h.mu.Lock()
	n = len(h.seen)
	_, hotSurvived := h.seen["INFO\x00hot key"]
	h.mu.Unlock()
	if n > maxDedupKeys {
		t.Fatalf("table grew past the cap: %d", n)
	}
	if n >= maxDedupKeys {
		t.Fatalf("eviction pass dropped nothing: %d keys", n)
	}
	if !hotSurvived {
		t.Fatal("recently-seen key evicted while stale keys were available")
	}

	lines := logLines(t, &buf)
	// 1 hot + 1023 stale + 1 hot flush + 1 fresh.
	if len(lines) != maxDedupKeys+2 {
		t.Fatalf("got %d lines, want %d", len(lines), maxDedupKeys+2)
	}
	flush := lines[maxDedupKeys]
	if flush["msg"] != "hot key" {
		t.Fatalf("line after the stale fill is %v, want the hot-key flush", flush["msg"])
	}
	if got, ok := flush["suppressed"].(float64); !ok || got != 7 {
		t.Fatalf("hot-key flush suppressed = %v, want 7 (state preserved across the full table)", flush["suppressed"])
	}
}
