package wire

import (
	"context"
	"errors"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

// startServer spins up an engine + wire server on a loopback listener
// and returns the dial address plus a shutdown func.
func startServer(t *testing.T, cfg engine.Config) (string, func()) {
	t.Helper()
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(e)
	done := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(done)
	}()
	return ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-done
		e.Close()
	}
}

// TestClientServerRoundTrip pushes and pops over a real TCP loopback
// connection and checks ranks come back in merged sorted order.
func TestClientServerRoundTrip(t *testing.T) {
	addr, stop := startServer(t, engine.Config{
		Shards: 4, Order: 2, Levels: 6,
	})
	defer stop()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Info().Shards != 4 {
		t.Fatalf("handshake shards = %d", c.Info().Shards)
	}

	ops := make([]Op, 0, 64)
	for i := 0; i < 64; i++ {
		ops = append(ops, Op{Kind: OpPush, Value: uint64(64 - i), Meta: uint64(i)})
	}
	res, err := c.Do(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Status != StatusOK {
			t.Fatalf("push %d: status %v", i, r.Status)
		}
	}

	pops := make([]Op, 64)
	for i := range pops {
		pops[i] = Op{Kind: OpPop}
	}
	res, err = c.Do(pops)
	if err != nil {
		t.Fatal(err)
	}
	values := []uint64{}
	for i, r := range res {
		if r.Status != StatusOK {
			t.Fatalf("pop %d: status %v", i, r.Status)
		}
		values = append(values, r.Value)
	}
	if !sort.SliceIsSorted(values, func(i, j int) bool { return values[i] < values[j] }) {
		t.Fatalf("pops not sorted: %v", values)
	}

	// Pop on empty: typed status, not an error.
	res, err = c.Do([]Op{{Kind: OpPop}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status != StatusEmpty {
		t.Fatalf("pop on empty: status %v", res[0].Status)
	}
}

// TestPipelinedClients runs concurrent goroutines over one connection
// plus a second connection, exercising id-matched pipelining and the
// server's coalescing writer.
func TestPipelinedClients(t *testing.T) {
	addr, stop := startServer(t, engine.Config{
		Shards: 2, Order: 2, Levels: 8,
	})
	defer stop()

	clients := make([]*Client, 2)
	for i := range clients {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}

	var wg sync.WaitGroup
	var pushed, popped sync.Map
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w%len(clients)]
			for i := 0; i < 30; i++ {
				ops := []Op{
					{Kind: OpPush, Value: uint64(w*1000 + i), Meta: uint64(w)<<32 | uint64(i)},
					{Kind: OpPop},
				}
				res, err := c.Do(ops)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if res[0].Status == StatusOK {
					pushed.Store(ops[0].Meta, ops[0].Value)
				}
				if res[1].Status == StatusOK {
					popped.Store(res[1].Meta, res[1].Value)
				}
			}
		}(w)
	}
	wg.Wait()

	// Every popped element must have been pushed with the same rank.
	popped.Range(func(k, v any) bool {
		want, ok := pushed.Load(k)
		if !ok {
			t.Errorf("popped element meta %v never pushed", k)
			return false
		}
		if want != v {
			t.Errorf("meta %v: popped rank %v, pushed %v", k, v, want)
		}
		return true
	})
}

// TestSyncGatePipelined pins the gate's contract now that it runs on the
// connection's writer: while one response's gate blocks, the reader goes
// on to execute the frames behind it (the hook sees all of them), yet
// nothing reaches the socket before its own gate returns, and the
// responses leave in request order.
func TestSyncGatePipelined(t *testing.T) {
	e, err := engine.New(engine.Config{Shards: 1, Order: 2, Levels: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const frames = 3
	hooked := make(chan uint64, frames)
	gates := make([]chan struct{}, frames+1)
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	srv := NewServer(e)
	srv.SetBatchHook(func(session, reqID uint64, ops []engine.Op, results []engine.Result, resp []byte) func() bool {
		hooked <- reqID
		return func() bool { <-gates[reqID]; return true }
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for id := uint64(1); id <= frames; id++ {
		payload := AppendOps(nil, []Op{{Kind: OpPush, Value: id, Meta: id}})
		if err := WriteFrame(conn, TBatch, id, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Every frame executes while the first gate is still shut.
	for id := uint64(1); id <= frames; id++ {
		select {
		case got := <-hooked:
			if got != id {
				t.Fatalf("hook saw request %d, want %d", got, id)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d never executed: the reader is waiting behind a gate", id)
		}
	}
	// Open the later gates first: their responses must still wait for
	// the first one's.
	close(gates[3])
	close(gates[2])
	conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if f, err := ReadFrame(conn); err == nil {
		t.Fatalf("response %d written before gate 1 opened", f.ID)
	}
	close(gates[1])
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for id := uint64(1); id <= frames; id++ {
		f, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != TBatchOK || f.ID != id {
			t.Fatalf("response type %d id %d, want TBatchOK id %d", f.Type, f.ID, id)
		}
	}
}

// TestBatchHookExecutionOrder pins the batch hook's ordering contract
// under concurrent connections: calls never overlap, and per shard the
// successful results' LSNs run on from call to call with no gap and no
// inversion — the hook sees batches in the order the engine ran them.
func TestBatchHookExecutionOrder(t *testing.T) {
	e, err := engine.New(engine.Config{Shards: 2, Order: 2, Levels: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var (
		inflight atomic.Int32
		overlaps atomic.Int32
		disorder atomic.Int32
		last     [2]atomic.Uint64
	)
	srv := NewServer(e)
	srv.SetBatchHook(func(session, reqID uint64, ops []engine.Op, results []engine.Result, resp []byte) func() bool {
		if inflight.Add(1) != 1 {
			overlaps.Add(1)
		}
		for _, r := range results {
			if r.Err == nil && r.LSN != last[r.Shard].Add(1) {
				disorder.Add(1)
				last[r.Shard].Store(r.LSN)
			}
		}
		runtime.Gosched() // give an overlapping call its chance
		inflight.Add(-1)
		return nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	const conns, batches = 4, 400
	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := Dial(ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for b := 0; b < batches; b++ {
				v := uint64(ci*batches + b)
				if _, err := c.Do([]Op{{Kind: OpPush, Value: v, Meta: v}, {Kind: OpPush, Value: v, Meta: v}, {Kind: OpPop}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	if n := overlaps.Load(); n != 0 {
		t.Errorf("%d hook calls overlapped another", n)
	}
	if n := disorder.Load(); n != 0 {
		t.Errorf("%d results broke their shard's LSN order across hook calls", n)
	}
	for sh := range last {
		if got, want := last[sh].Load(), e.ShardLSN(sh); got != want {
			t.Errorf("shard %d: hook saw LSNs up to %d, the engine is at %d", sh, got, want)
		}
	}
}

// TestWithheldResponseClosesConn: a gate that returns false withholds
// its response — the responses ahead of it are delivered, then the
// connection closes with neither the withheld response nor any queued
// behind it on the wire.
func TestWithheldResponseClosesConn(t *testing.T) {
	e, err := engine.New(engine.Config{Shards: 1, Order: 2, Levels: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	srv := NewServer(e)
	srv.SetBatchHook(func(session, reqID uint64, ops []engine.Op, results []engine.Result, resp []byte) func() bool {
		return func() bool { return reqID != 2 }
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var frames []byte
	for id := uint64(1); id <= 3; id++ {
		frames = AppendFrame(frames, TBatch, id, AppendOps(nil, []Op{{Kind: OpPush, Value: id, Meta: id}}))
	}
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if f, err := ReadFrame(conn); err != nil || f.Type != TBatchOK || f.ID != 1 {
		t.Fatalf("first response: type %d id %d, %v", f.Type, f.ID, err)
	}
	if f, err := ReadFrame(conn); err == nil {
		t.Fatalf("response %d written after a withheld one", f.ID)
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("connection left open after a withheld response")
	}
}

// TestDirectWriteKeepsOrder pins the reader's direct write against the
// writer's queue. Every third batch is gated for a millisecond, and a
// raw conn pipelines 64 frames, so the reader keeps finding the writer
// busy with a gated response. Responses must still leave in request-id
// order, and a gated one only after its gate has returned.
func TestDirectWriteKeepsOrder(t *testing.T) {
	e, err := engine.New(engine.Config{Shards: 1, Order: 2, Levels: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const frames = 64
	var opened [frames + 1]atomic.Bool
	srv := NewServer(e)
	srv.SetBatchHook(func(session, reqID uint64, ops []engine.Op, results []engine.Result, resp []byte) func() bool {
		if reqID%3 != 0 {
			return nil
		}
		return func() bool {
			time.Sleep(time.Millisecond)
			opened[reqID].Store(true)
			return true
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var req []byte
	for id := uint64(1); id <= frames; id++ {
		req = AppendFrame(req, TBatch, id, AppendOps(nil, []Op{{Kind: OpPush, Value: id, Meta: id}}))
	}
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for id := uint64(1); id <= frames; id++ {
		f, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != TBatchOK || f.ID != id {
			t.Fatalf("response type %d id %d, want TBatchOK id %d", f.Type, f.ID, id)
		}
		if id%3 == 0 && !opened[id].Load() {
			t.Fatalf("gated response %d read before its gate returned", id)
		}
	}
}

// TestMaxInflightShedsWholeBatch pins the per-connection in-flight cap,
// the one producer of StatusOverloaded. A shut sync gate holds the
// first response in the writer, so the next two queue behind it and
// the conn sits at its cap of 2. The frame after that is shed whole:
// every op, pops and peeks included, answers StatusOverloaded and
// nothing executes. A retry of an id already cached is still answered
// verbatim, because dedup comes before shedding. Once the gate opens,
// a retry of the shed id executes, exactly once: shed responses are
// never cached.
func TestMaxInflightShedsWholeBatch(t *testing.T) {
	e, err := engine.New(engine.Config{Shards: 1, Order: 2, Levels: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	gate := make(chan struct{})
	gated := make(chan struct{}, 1)
	hooked := make(chan uint64, 8) // one per executed frame; the test executes five
	srv := NewServerConfig(e, ServerConfig{MaxInflight: 2})
	srv.SetBatchHook(func(session, reqID uint64, ops []engine.Op, results []engine.Result, resp []byte) func() bool {
		hooked <- reqID
		return func() bool {
			select {
			case gated <- struct{}{}:
			default:
			}
			<-gate
			return true
		}
	})
	fetched := make(chan struct{}, 1)
	srv.SetFetchHandler(func([]byte) ([]byte, error) {
		fetched <- struct{}{}
		return nil, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	opened := false
	defer func() {
		if !opened {
			close(gate)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	write := func(typ Type, id uint64, payload []byte) {
		t.Helper()
		if err := WriteFrame(conn, typ, id, payload); err != nil {
			t.Fatal(err)
		}
	}
	read := func(id uint64) []Result {
		t.Helper()
		f, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != TBatchOK || f.ID != id {
			t.Fatalf("response type %d id %d, want TBatchOK id %d", f.Type, f.ID, id)
		}
		res, err := ParseResults(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	wait := func(ch <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	executed := func(want uint64) {
		t.Helper()
		select {
		case got := <-hooked:
			if got != want {
				t.Fatalf("hook saw request %d, want %d", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d never executed", want)
		}
	}
	write(THello, 0, AppendHello(nil, 7)) // a session: enrolled in dedup
	if f, err := ReadFrame(conn); err != nil || f.Type != THelloOK {
		t.Fatalf("hello: %v %+v", err, f)
	}

	push := func(v uint64) Op { return Op{Kind: OpPush, Value: v, Meta: v} }
	// Frame 1 executes and its response parks in the writer's gate;
	// frames 2 and 3 execute and queue behind it.
	write(TBatch, 1, AppendOps(nil, []Op{push(10), push(11)}))
	wait(gated, "the writer to block in frame 1's gate")
	write(TBatch, 2, AppendOps(nil, []Op{push(20)}))
	write(TBatch, 3, AppendOps(nil, []Op{push(30)}))
	for id := uint64(1); id <= 3; id++ {
		executed(id)
	}
	before := e.Len()
	// Over the cap: frame 4 is shed, the retry of cached id 1 is
	// answered from the cache, and the fetch frame marks that the
	// reader has passed both.
	shed := []Op{push(1), {Kind: OpPop}, {Kind: OpPopBounded, Value: 0}, {Kind: OpPeek}, push(2), push(3)}
	write(TBatch, 4, AppendOps(nil, shed))
	write(TBatch, 1, AppendOps(nil, []Op{push(10), push(11)}))
	write(TReplFetch, 5, nil)
	wait(fetched, "the reader to reach the fetch frame")
	if got := e.Len(); got != before {
		t.Fatalf("engine Len %d after the shed frame, want %d: the shed frame executed", got, before)
	}

	close(gate)
	opened = true
	first := read(1)
	read(2)
	read(3)
	for i, r := range read(4) {
		if r.Status != StatusOverloaded {
			t.Fatalf("shed frame op %d (kind %d): status %v, want overloaded", i, shed[i].Kind, r.Status)
		}
	}
	if got := read(1); len(got) != len(first) || got[0] != first[0] || got[1] != first[1] {
		t.Fatalf("cached id 1 answered %+v over the cap, want the original %+v", got, first)
	}
	if f, err := ReadFrame(conn); err != nil || f.Type != TReplChunk || f.ID != 5 {
		t.Fatalf("fetch response: %v %+v", err, f)
	}

	// The shed id was never executed, so its retry runs now, once; a
	// second retry is the cached answer.
	for try := 0; try < 2; try++ {
		write(TBatch, 4, AppendOps(nil, shed))
		for i, r := range read(4) {
			if r.Status == StatusOverloaded {
				t.Fatalf("retry %d of the shed id: op %d still overloaded: the shed answer was cached", try, i)
			}
		}
	}
	executed(4)
	if len(hooked) != 0 {
		t.Fatal("the shed id executed more than once")
	}
	// Three pushes in, one pop out; the bounded pop misses.
	if got := e.Len(); got != before+2 {
		t.Fatalf("engine Len %d after the retries, want %d", got, before+2)
	}
}
