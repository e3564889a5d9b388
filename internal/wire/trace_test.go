package wire

import (
	"context"
	"encoding/json"
	"net"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// startTracedServer is startServer with a request tracer installed,
// and a batch hook when one is given.
func startTracedServer(t *testing.T, cfg engine.Config, topts obs.TracerOptions, hook BatchHook) (string, *obs.Tracer, func()) {
	t.Helper()
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(topts)
	if tracer == nil {
		t.Fatal("tracer disabled")
	}
	srv := NewServerConfig(e, ServerConfig{Tracer: tracer})
	if hook != nil {
		srv.SetBatchHook(hook)
	}
	done := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(done)
	}()
	return ln.Addr().String(), tracer, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-done
		e.Close()
	}
}

// TestSpanStageMonotonic drives traffic through a traced server and
// asserts every finished span's stamped stages are non-decreasing and
// consistent with its outcome: decode and write always stamped, and the
// engine stages present exactly when the request reached the engine.
// The gated case installs a batch hook whose gate blocks: the ack stamp
// then comes from the connection's writer, after the gate returns — it
// must still fall between commit and write, at least the block later
// than commit.
func TestSpanStageMonotonic(t *testing.T) {
	const block = 200 * time.Microsecond
	t.Run("ungated", func(t *testing.T) { testSpanStages(t, nil, 0) })
	t.Run("gated", func(t *testing.T) {
		testSpanStages(t, func(session, reqID uint64, ops []engine.Op, results []engine.Result, resp []byte) func() bool {
			return func() bool { time.Sleep(block); return true }
		}, block)
	})
}

func testSpanStages(t *testing.T, hook BatchHook, minAck time.Duration) {
	reg := obs.NewRegistry()
	var (
		mu    sync.Mutex
		spans [][obs.NumStages]int64
	)
	addr, tracer, stop := startTracedServer(t,
		engine.Config{Shards: 4, Order: 2, Levels: 6},
		obs.TracerOptions{Registry: reg, Prefix: "t"}, hook)
	tracer.OnFinish = func(track int64, ts [obs.NumStages]int64) {
		mu.Lock()
		spans = append(spans, ts)
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			ops := make([]Op, 16)
			for i := range ops {
				if i%2 == 0 {
					ops[i] = Op{Kind: OpPush, Value: uint64(i), Meta: uint64(c*1000 + i)}
				} else {
					ops[i] = Op{Kind: OpPop}
				}
			}
			for n := 0; n < 50; n++ {
				if _, err := cl.Do(ops); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	stop()

	mu.Lock()
	defer mu.Unlock()
	if len(spans) != 4*50 {
		t.Fatalf("finished %d spans, want %d", len(spans), 4*50)
	}
	for i, ts := range spans {
		prev := int64(0)
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			v := ts[st]
			if v == 0 {
				t.Errorf("span %d: stage %v unstamped", i, st)
				continue
			}
			if v < prev {
				t.Fatalf("span %d: stage %v at %d before previous stamp %d", i, st, v, prev)
			}
			prev = v
		}
		if d := time.Duration(ts[obs.StageAck] - ts[obs.StageCommit]); d < minAck {
			t.Errorf("span %d: ack %v after commit, the gate blocks %v", i, d, minAck)
		}
	}
	// Every executed batch fed all eight stage histograms.
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		name := obs.StageMetricName("t", st)
		if n := reg.Snapshot().Quantile(name).Count; n != 4*50 {
			t.Errorf("%s: %d observations, want %d", name, n, 4*50)
		}
	}
}

// TestMetricsScrapeUnderLoad hammers /metrics.json (and the Prometheus
// text endpoint) from several goroutines while traced traffic is in
// flight — the race detector is the assertion, plus each scrape must
// decode as a valid snapshot.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewTraceRecorder()
	addr, _, stop := startTracedServer(t,
		engine.Config{Shards: 2, Order: 2, Levels: 6},
		obs.TracerOptions{Registry: reg, Prefix: "t", Recorder: rec, SampleEvery: 8}, nil)
	defer stop()

	hs := httptest.NewServer(obs.HandlerOpts(reg, obs.HandlerOptions{Trace: rec}))
	defer hs.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			ops := []Op{{Kind: OpPush, Value: 1, Meta: uint64(c)}, {Kind: OpPop}}
			for ctx.Err() == nil {
				if _, err := cl.Do(ops); err != nil {
					return
				}
			}
		}(c)
	}

	var scrapes atomic.Int64
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				for _, path := range []string{"/metrics.json", "/metrics", "/trace.json"} {
					resp, err := hs.Client().Get(hs.URL + path)
					if err != nil {
						t.Errorf("%s: %v", path, err)
						return
					}
					if path == "/metrics.json" {
						var snap obs.Snapshot
						if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
							t.Errorf("decode snapshot: %v", err)
						}
					}
					resp.Body.Close()
					scrapes.Add(1)
				}
			}
		}()
	}

	// Let load and scrapes overlap, then stop the load.
	time.Sleep(300 * time.Millisecond)
	cancel()
	wg.Wait()
	if scrapes.Load() != 4*25*3 {
		t.Fatalf("completed %d scrapes, want %d", scrapes.Load(), 4*25*3)
	}
	if reg.Snapshot().Quantile(obs.StageMetricName("t", obs.StageIssue)).Count == 0 {
		t.Fatal("no spans aggregated during load")
	}
}

// TestBoundedPopMissIsNotAnErroredSpan: the cluster merge ends every
// node's turn with misses, so a healthy client produces them on most
// frames. They must not mark the request span errored — errored spans
// enter the flight recorder unconditionally and would flood it. The
// plain pop on an empty node is the control: it still does, which also
// proves the recorder is wired.
func TestBoundedPopMissIsNotAnErroredSpan(t *testing.T) {
	flight := obs.NewFlightRecorder(256)
	addr, _, stop := startTracedServer(t,
		engine.Config{Shards: 1, Order: 2, Levels: 6},
		obs.TracerOptions{Registry: obs.NewRegistry(), Prefix: "t", Flight: flight,
			// Only errored spans are admitted: nothing is slow enough,
			// and the one-in-N sample never comes up.
			FlightSlowNs: int64(time.Hour), FlightSampleEvery: 1 << 30}, nil)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	merge := []Op{{Kind: OpPopBounded, Value: 5}, {Kind: OpPopBounded, Value: 5}, {Kind: OpPeek}}
	for _, push := range []bool{false, true} { // misses on an empty node, then on a head above the bound
		if push {
			if _, err := cl.Do([]Op{{Kind: OpPush, Value: 9, Meta: 1}}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			res, err := cl.Do(merge)
			if err != nil || res[0].Status != StatusMiss || res[1].Status != StatusMiss {
				t.Fatalf("merge frame: %+v %v", res, err)
			}
		}
	}
	if res, err := cl.Do([]Op{{Kind: OpPop}, {Kind: OpPop}}); err != nil || res[1].Status != StatusEmpty {
		t.Fatalf("control pops: %+v %v", res, err)
	}
	cl.Close()
	stop() // every span is finished once the server has shut down

	var erred int
	for _, ev := range flight.Dump().Events {
		if ev.Kind == obs.FlightSpan.String() && ev.C == 1 {
			erred++
		}
	}
	if erred != 1 {
		t.Fatalf("%d errored spans in the flight recorder, want 1 (the control); %d events in all", erred, flight.Recorded())
	}
}
