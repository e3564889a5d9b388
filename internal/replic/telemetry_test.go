package replic

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// TestReplicationTelemetry replicates a burst through an instrumented
// primary/follower pair and checks the exported gauges and counters:
// lag returns to 0 once the follower catches up, ack latency is
// observed in sync mode, records/acks count up, and the Prometheus
// text exposition carries the lag gauge.
func TestReplicationTelemetry(t *testing.T) {
	prim := startNode(t, testGeom, Config{Sync: true, SyncTimeout: 5 * time.Second})
	defer prim.stop(2 * time.Second)
	fol := startNode(t, testGeom, Config{PrimaryAddr: prim.addr})
	defer fol.stop(2 * time.Second)

	preg, freg := obs.NewRegistry(), obs.NewRegistry()
	prim.node.Instrument(preg, "repl")
	fol.node.Instrument(freg, "repl")

	waitUntil(t, "follower attached", func() bool { return fol.node.attached.Load() })

	c, err := wire.NewResilientClient(wire.ResilientOptions{Addrs: []string{prim.addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ops := make([]wire.Op, 32)
	for i := range ops {
		ops[i] = wire.Op{Kind: wire.OpPush, Value: uint64(i), Meta: uint64(i)}
	}
	for n := 0; n < 20; n++ {
		if _, err := c.Do(ops); err != nil {
			t.Fatal(err)
		}
	}

	// Sync mode: every batch waited for its ack, so the lag gauge must
	// come back to 0 once traffic stops and the ack latency histogram
	// must have fed.
	waitUntil(t, "primary lag 0", func() bool { return prim.node.Lag() == 0 })
	waitUntil(t, "follower lag 0", func() bool { return fol.node.Lag() == 0 })

	ps, fs := preg.Snapshot(), freg.Snapshot()
	if got := ps.Gauge("repl_role"); got != 0 {
		t.Errorf("primary repl_role = %v, want 0", got)
	}
	if got := fs.Gauge("repl_role"); got != 1 {
		t.Errorf("follower repl_role = %v, want 1", got)
	}
	if got := ps.Gauge("repl_followers"); got != 1 {
		t.Errorf("repl_followers = %v, want 1", got)
	}
	if got := ps.Gauge("repl_sync_mode"); got != 1 {
		t.Errorf("repl_sync_mode = %v, want 1", got)
	}
	if got := ps.Gauge("repl_degraded"); got != 0 {
		t.Errorf("repl_degraded = %v, want 0", got)
	}
	if ps.Gauge("repl_log_seq") == 0 {
		t.Error("primary repl_log_seq still 0 after traffic")
	}
	if got, want := ps.Gauge("repl_ack_seq"), ps.Gauge("repl_log_seq"); got != want {
		t.Errorf("primary ack_seq %v != log_seq %v after drain", got, want)
	}
	if ps.Quantile("repl_ack_latency_ns").Count == 0 {
		t.Error("sync mode produced no ack latency observations")
	}
	if fs.Counter("repl_records_applied_total") == 0 {
		t.Error("follower applied no records")
	}
	if ps.Counter("repl_acks_total") == 0 {
		t.Error("primary counted no acks")
	}
	if fs.Gauge("repl_heartbeat_age_seconds") <= 0 {
		t.Error("follower heartbeat age not tracked")
	}

	// The lag gauge must appear in the Prometheus text exposition — the
	// contract the CI smoke greps for.
	var buf bytes.Buffer
	if err := preg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\nrepl_lag 0\n") {
		t.Errorf("Prometheus text missing drained repl_lag gauge:\n%s", buf.String())
	}
}

// TestStructuredEventsJSON routes replication lifecycle events through
// a slog JSON logger and checks attach/detach land as structured
// records with their attributes.
func TestStructuredEventsJSON(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	lock := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	logger := slog.New(slog.NewJSONHandler(lock, nil))

	prim := startNode(t, testGeom, Config{Logger: logger})
	defer prim.stop(2 * time.Second)
	fol := startNode(t, testGeom, Config{PrimaryAddr: prim.addr, Logger: logger})
	defer fol.stop(2 * time.Second)
	waitUntil(t, "follower caught up", fol.node.Ready)
	fol.node.Promote()

	mu.Lock()
	defer mu.Unlock()
	var msgs []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		msg, _ := rec["msg"].(string)
		msgs = append(msgs, msg)
		if msg == "replic: attached to primary" && rec["addr"] != prim.addr {
			t.Errorf("attach event addr = %v, want %v", rec["addr"], prim.addr)
		}
	}
	joined := strings.Join(msgs, "|")
	for _, want := range []string{"replic: follower attached", "replic: attached to primary", "replic: promoted to primary"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing structured event %q in %q", want, joined)
		}
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestInstrumentWhileStreaming publishes the instruments the way
// node.Start does, after Attach: the follower is already streaming and
// sync batches are flowing through the primary's batch hook when
// Instrument runs on both nodes. Run under -race; once published, the
// instruments count the traffic that follows.
func TestInstrumentWhileStreaming(t *testing.T) {
	prim := startNode(t, testGeom, Config{Sync: true, SyncTimeout: 5 * time.Second})
	defer prim.stop(2 * time.Second)
	fol := startNode(t, testGeom, Config{PrimaryAddr: prim.addr})
	defer fol.stop(2 * time.Second)
	waitUntil(t, "follower attached", func() bool { return fol.node.attached.Load() })

	c, err := wire.NewResilientClient(wire.ResilientOptions{Addrs: []string{prim.addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var batches atomic.Int64
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		ops := make([]wire.Op, 8)
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			for j := range ops {
				ops[j] = wire.Op{Kind: wire.OpPush, Value: i, Meta: i<<8 | uint64(j)}
			}
			if i%2 == 1 {
				for j := range ops {
					ops[j] = wire.Op{Kind: wire.OpPop}
				}
			}
			if _, err := c.Do(ops); err != nil {
				done <- err
				return
			}
			batches.Add(1)
		}
	}()
	waitUntil(t, "follower applying", func() bool { return fol.node.streamPos.Load() > 0 })

	preg, freg := obs.NewRegistry(), obs.NewRegistry()
	prim.node.Instrument(preg, "repl")
	fol.node.Instrument(freg, "repl")
	from := batches.Load()
	waitUntil(t, "traffic after Instrument", func() bool { return batches.Load() > from+20 })
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "follower caught up", func() bool { return fol.node.Lag() == 0 })

	ps, fs := preg.Snapshot(), freg.Snapshot()
	if ps.Counter("repl_acks_total") == 0 || ps.Quantile("repl_ack_latency_ns").Count == 0 {
		t.Errorf("primary counted %v acks and %d ack latencies after Instrument",
			ps.Counter("repl_acks_total"), ps.Quantile("repl_ack_latency_ns").Count)
	}
	if fs.Counter("repl_records_applied_total") == 0 {
		t.Error("follower counted no applied records after Instrument")
	}
}
