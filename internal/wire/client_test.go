package wire

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestClientStartsNoReader pins the client's shape: the caller waiting
// for a response reads it, so a dialed client that has answered a
// request leaves no goroutine of its own behind.
func TestClientStartsNoReader(t *testing.T) {
	addr, stop := startServer(t, engine.Config{Shards: 1, Order: 2, Levels: 6})
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do([]Op{{Kind: OpPush, Value: 1, Meta: 1}}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	stacks := buf[:runtime.Stack(buf, true)]
	if i := bytes.Index(stacks, []byte("wire.(*Client)")); i >= 0 {
		end := min(len(stacks), i+200)
		t.Fatalf("a goroutine runs client code after Do returned:\n%s", stacks[i:end])
	}
}

// TestClientTokenHandoff drives 16 concurrent callers over one client,
// so the read token changes hands constantly, then force-closes the
// server mid-run. Every call returns — with results before the kill,
// with an error after it — within ReadTimeout plus a second, and once
// the callers are done no goroutine is left behind.
func TestClientTokenHandoff(t *testing.T) {
	const (
		workers     = 16
		calls       = 500
		readTimeout = 2 * time.Second
	)
	before := runtime.NumGoroutine()
	addr, kill := killableServer(t, engine.Config{Shards: 2, Order: 2, Levels: 8})
	c, err := DialOptions(addr, ClientOptions{ReadTimeout: readTimeout, WriteTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}

	// The kill fires after a quarter of the calls. Callers already in
	// Do then race it, so the token changes hands on a dying conn; a
	// call that has not started waits until kill has returned, so the
	// rest of the run cannot finish inside Shutdown's grace.
	var ok, failed, slow atomic.Int64
	fired, killed := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				select {
				case <-fired:
					<-killed
				default:
				}
				ops := []Op{{Kind: OpPush, Value: uint64(i), Meta: uint64(w)<<32 | uint64(i)}, {Kind: OpPop}}
				start := time.Now()
				res, err := c.Do(ops)
				if time.Since(start) > readTimeout+time.Second {
					slow.Add(1)
				}
				switch {
				case err != nil:
					failed.Add(1)
				case len(res) != len(ops):
					t.Errorf("worker %d call %d: %d results for %d ops", w, i, len(res), len(ops))
				default:
					if ok.Add(1) == workers*calls/4 {
						close(fired)
						go func() {
							kill()
							close(killed)
						}()
					}
				}
			}
		}(w)
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("callers hung after the kill:\n%s", buf[:runtime.Stack(buf, true)])
	}
	kill()
	c.Close()
	if n := slow.Load(); n > 0 {
		t.Errorf("%d calls took longer than ReadTimeout + 1s", n)
	}
	if ok.Load() < workers*calls/4 || failed.Load() == 0 {
		t.Errorf("ok %d, failed %d: the kill did not land mid-run", ok.Load(), failed.Load())
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("%d goroutines after the run, %d before:\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}

// countingConn counts the Read calls made on a connection.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// TestClientOneReadPerResponse: the client reads through a buffer, so
// a 64-op response — header, payload and trailer — costs one read off
// the connection, not one for the header and one for the rest.
func TestClientOneReadPerResponse(t *testing.T) {
	addr, stop := startServer(t, engine.Config{Shards: 1, Order: 2, Levels: 8})
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: conn}
	c, err := NewClient(cc)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ops := make([]Op, 64)
	for i := range ops {
		ops[i] = Op{Kind: OpPush, Value: uint64(i), Meta: uint64(i)}
	}
	const calls = 20
	before := cc.reads.Load()
	for i := 0; i < calls; i++ {
		if _, err := c.Do(ops); err != nil {
			t.Fatal(err)
		}
	}
	if n := cc.reads.Load() - before; n != calls {
		t.Fatalf("%d reads for %d 64-op responses, want one each", n, calls)
	}
}

// TestClientDoAllocs gates a steady 16-op Do (8 pushes, 8 pops) on one
// client, counted process-wide, so the server's share is in it too.
func TestClientDoAllocs(t *testing.T) {
	addr, stop := startServer(t, engine.Config{Shards: 1, Order: 2, Levels: 8})
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ops := make([]Op, 16)
	for i := range ops {
		ops[i] = Op{Kind: OpPop}
		if i%2 == 0 {
			ops[i] = Op{Kind: OpPush, Value: uint64(i), Meta: uint64(i)}
		}
	}
	do := func() {
		if _, err := c.Do(ops); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		do()
	}
	if avg := testing.AllocsPerRun(500, do); avg > 9 {
		t.Fatalf("%v allocations per 16-op Do, want <= 9", avg)
	}
}

// TestClientRefusalFailsOneRequest: a TError has one meaning per
// status. Two requests are pending on one connection and the server
// answers the first with a TError, then the second with its results. A
// Refused TError fails the first alone: the second gets its results and
// the connection serves a third. Any other status (Invalid here) ends
// the connection, failing the second as well.
func TestClientRefusalFailsOneRequest(t *testing.T) {
	ops := []Op{{Kind: OpPush, Value: 1, Meta: 1}}
	ok := AppendResults(nil, []Result{{Status: StatusOK}})
	for _, code := range []Status{StatusRefused, StatusInvalid} {
		srv, cli := net.Pipe()
		go func() {
			defer srv.Close()
			if _, err := ReadFrame(srv); err != nil {
				return
			}
			WriteFrame(srv, THelloOK, 0, AppendHelloOK(nil, HelloInfo{Version: Version, Shards: 1, Capacity: 8}))
			for i := 0; i < 2; i++ {
				if _, err := ReadFrame(srv); err != nil {
					return
				}
			}
			WriteFrame(srv, TError, 1, append([]byte{byte(code)}, "no such file"...))
			if WriteFrame(srv, TBatchOK, 2, ok) != nil {
				return
			}
			if f, err := ReadFrame(srv); err == nil {
				WriteFrame(srv, TBatchOK, f.ID, ok)
			}
		}()
		c, err := NewClient(cli)
		if err != nil {
			t.Fatal(err)
		}
		first, second := c.SendID(1, ops, 0), c.SendID(2, ops, 0)
		_, err1 := first.Wait()
		var serr *ServerError
		if !errors.As(err1, &serr) || serr.Code != code {
			t.Fatalf("%s: first request got %v, want a ServerError with that status", code, err1)
		}
		res, err2 := second.Wait()
		if code.EndsConn() {
			if err2 == nil {
				t.Fatalf("%s: the second request was answered on a connection the TError ended", code)
			}
			c.Close()
			continue
		}
		if err2 != nil || len(res) != 1 || res[0].Status != StatusOK {
			t.Fatalf("%s: second request got %v, %v; want its result", code, res, err2)
		}
		if _, err := c.DoID(3, ops, 0); err != nil {
			t.Fatalf("%s: the connection stopped serving after the refusal: %v", code, err)
		}
		c.Close()
	}
}
