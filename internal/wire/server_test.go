package wire

import (
	"context"
	"net"
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
	srv.SetBatchHook(func(session, reqID uint64, ops []engine.Op, results []engine.Result, resp []byte) func() {
		hooked <- reqID
		return func() { <-gates[reqID] }
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
	srv.SetBatchHook(func(session, reqID uint64, ops []engine.Op, results []engine.Result, resp []byte) func() {
		if reqID%3 != 0 {
			return nil
		}
		return func() {
			time.Sleep(time.Millisecond)
			opened[reqID].Store(true)
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
