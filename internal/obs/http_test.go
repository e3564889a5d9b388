package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total").Add(2)
	r.Gauge("occ").Set(4)
	h := HandlerOpts(r, HandlerOptions{})

	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return sb.String(), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.Contains(body, "hits_total 2") || !strings.Contains(ctype, "text/plain") {
		t.Fatalf("/metrics body %q ctype %q", body, ctype)
	}

	body, ctype = get("/metrics.json")
	if !strings.Contains(ctype, "application/json") {
		t.Fatalf("/metrics.json ctype %q", ctype)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json not JSON: %v\n%s", err, body)
	}
	if snap.Counter("hits_total") != 2 || snap.Gauge("occ") != 4 {
		t.Fatalf("/metrics.json snapshot wrong: %s", body)
	}

	body, _ = get("/debug/vars")
	if !strings.Contains(body, "memstats") {
		t.Fatal("/debug/vars missing memstats")
	}

	body, _ = get("/debug/pprof/")
	if !strings.Contains(body, "goroutine") {
		t.Fatal("/debug/pprof/ index missing goroutine profile")
	}
}

// TestNewServerTimeouts pins the slow-client hardening: a registry
// server must never accept connections without header/read/idle
// budgets, or one stalled scraper pins a goroutine for the process
// lifetime. WriteTimeout is intentionally zero (pprof profile/trace
// stream for their full duration).
func TestNewServerTimeouts(t *testing.T) {
	srv := NewServerOpts("127.0.0.1:0", NewRegistry(), HandlerOptions{})
	if srv.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout not set")
	}
	if srv.ReadTimeout <= 0 {
		t.Error("ReadTimeout not set")
	}
	if srv.IdleTimeout <= 0 {
		t.Error("IdleTimeout not set")
	}
}

// TestHealthEndpoints covers /healthz and /readyz: nil probes default
// to 200, a false ready() flips /readyz to 503 without touching
// /healthz, and a nil ready falls back to healthy.
func TestHealthEndpoints(t *testing.T) {
	status := func(t *testing.T, h *httptest.Server, path string) int {
		t.Helper()
		resp, err := h.Client().Get(h.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	r := NewRegistry()
	plain := httptest.NewServer(HandlerOpts(r, HandlerOptions{}))
	defer plain.Close()
	if s := status(t, plain, "/healthz"); s != 200 {
		t.Fatalf("nil-probe /healthz = %d", s)
	}
	if s := status(t, plain, "/readyz"); s != 200 {
		t.Fatalf("nil-probe /readyz = %d", s)
	}

	var ready atomic.Bool
	gated := httptest.NewServer(HandlerOpts(r, HandlerOptions{Healthy: func() bool { return true }, Ready: ready.Load}))
	defer gated.Close()
	if s := status(t, gated, "/healthz"); s != 200 {
		t.Fatalf("live /healthz = %d", s)
	}
	if s := status(t, gated, "/readyz"); s != 503 {
		t.Fatalf("not-ready /readyz = %d, want 503", s)
	}
	ready.Store(true)
	if s := status(t, gated, "/readyz"); s != 200 {
		t.Fatalf("ready /readyz = %d", s)
	}

	fallback := httptest.NewServer(HandlerOpts(r, HandlerOptions{Healthy: func() bool { return false }}))
	defer fallback.Close()
	if s := status(t, fallback, "/healthz"); s != 503 {
		t.Fatalf("unhealthy /healthz = %d, want 503", s)
	}
	if s := status(t, fallback, "/readyz"); s != 503 {
		t.Fatalf("nil ready must fall back to healthy: /readyz = %d, want 503", s)
	}
}
