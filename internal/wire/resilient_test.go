package wire

import (
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

// Proxy modes.
const (
	proxyPass      = iota // relay faithfully
	proxyReset            // swallow the next server bytes, then reset the connection
	proxyBlackhole        // discard server bytes silently, connection stays up
)

// flakyProxy relays TCP to upstream, consulting mode on every chunk of
// the server→client direction, so a live connection can be made to
// lose or stall responses mid-stream.
type flakyProxy struct {
	ln   net.Listener
	mode atomic.Int32
}

func startFlakyProxy(t *testing.T, upstream string) *flakyProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyProxy{ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", upstream)
			if err != nil {
				c.Close()
				continue
			}
			go func() {
				io.Copy(up, c)
				c.Close()
				up.Close()
			}()
			go func() {
				defer c.Close()
				defer up.Close()
				buf := make([]byte, 32<<10)
				for {
					n, err := up.Read(buf)
					if n > 0 {
						switch p.mode.Load() {
						case proxyReset:
							return // swallow and cut: client sees a reset
						case proxyBlackhole:
							continue // swallow silently: client sees a stall
						}
						if _, werr := c.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return p
}

// TestResilientRetryDedup loses a response in flight: the push applies
// server-side but its ack dies in the proxy, and the client's retry of
// the same request id must be answered from the server's dedup cache —
// applied exactly once, never doubled.
func TestResilientRetryDedup(t *testing.T) {
	addr, stop := startServer(t, engine.Config{Shards: 2, Order: 2, Levels: 8})
	defer stop()
	proxy := startFlakyProxy(t, addr)
	defer proxy.ln.Close()

	rc, err := NewResilientClient(ResilientOptions{
		Addrs:          []string{proxy.ln.Addr().String()},
		RequestTimeout: 2 * time.Second,
		BaseDelay:      time.Millisecond,
		MaxDelay:       10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	// Warm the connection in pass mode.
	if _, err := rc.Do([]Op{{Kind: OpPush, Value: 1, Meta: 1}}); err != nil {
		t.Fatal(err)
	}

	proxy.mode.Store(proxyReset)
	done := make(chan error, 1)
	go func() {
		res, err := rc.Do([]Op{{Kind: OpPush, Value: 2, Meta: 2}})
		if err == nil && res[0].Status != StatusOK {
			err = errors.New("push status " + res[0].Status.String())
		}
		done <- err
	}()
	time.Sleep(150 * time.Millisecond) // let the doomed attempt land and die
	proxy.mode.Store(proxyPass)
	if err := <-done; err != nil {
		t.Fatalf("retried push: %v", err)
	}
	if s := rc.Stats(); s.Retries == 0 {
		t.Fatal("lost response produced no retry")
	}

	// Drain: exactly the two pushes, each applied once.
	var got []uint64
	for {
		res, err := rc.Do([]Op{{Kind: OpPop}})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Status == StatusEmpty {
			break
		}
		got = append(got, res[0].Value)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("drained %v, want [1 2] — lost or duplicated apply", got)
	}
}

// TestResilientSendWait splits Do in two. One goroutine sends on two
// clients and waits on them in reverse order: each answer finds its own
// caller. Then a sent request loses its response (the proxy resets the
// conn after the server applied it) before Wait is called: Wait must
// retry under the request's own id, so the server answers from its
// dedup cache and the push applies exactly once.
func TestResilientSendWait(t *testing.T) {
	addrA, stopA := startServer(t, engine.Config{Shards: 1, Order: 2, Levels: 8})
	defer stopA()
	addrB, stopB := startServer(t, engine.Config{Shards: 1, Order: 2, Levels: 8})
	defer stopB()
	proxy := startFlakyProxy(t, addrB)
	defer proxy.ln.Close()
	dial := func(addr string) *ResilientClient {
		rc, err := NewResilientClient(ResilientOptions{
			Addrs:          []string{addr},
			RequestTimeout: 2 * time.Second,
			BaseDelay:      time.Millisecond,
			MaxDelay:       10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rc
	}
	a, b := dial(addrA), dial(proxy.ln.Addr().String())
	defer a.Close()
	defer b.Close()

	pa := a.Send([]Op{{Kind: OpPush, Value: 1, Meta: 1}, {Kind: OpPop}})
	pb := b.Send([]Op{{Kind: OpPush, Value: 2, Meta: 2}, {Kind: OpPush, Value: 3, Meta: 3}, {Kind: OpPop}})
	if res, err := pb.Wait(); err != nil || len(res) != 3 || res[2].Value != 2 {
		t.Fatalf("b: %+v %v", res, err)
	}
	if res, err := pa.Wait(); err != nil || len(res) != 2 || res[1].Value != 1 {
		t.Fatalf("a: %+v %v", res, err)
	}

	proxy.mode.Store(proxyReset)
	p := b.Send([]Op{{Kind: OpPush, Value: 4, Meta: 4}})
	time.Sleep(150 * time.Millisecond) // the push applies; its answer dies with the conn
	proxy.mode.Store(proxyPass)
	if res, err := p.Wait(); err != nil || res[0].Status != StatusOK {
		t.Fatalf("retried push: %+v %v", res, err)
	}
	if s := b.Stats(); s.Retries == 0 {
		t.Fatal("lost response produced no retry")
	}
	var got []uint64
	for {
		res, err := b.Do([]Op{{Kind: OpPop}})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Status == StatusEmpty {
			break
		}
		got = append(got, res[0].Value)
	}
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("drained %v, want [3 4]: the retried push applied other than once", got)
	}
}

// TestClientReadTimeoutOnDeadPeer stalls the server→client direction
// after the handshake: the pipelined read must fail within the read
// timeout instead of hanging forever (the pre-timeout client hung
// until the TCP stack gave up, if ever).
func TestClientReadTimeoutOnDeadPeer(t *testing.T) {
	addr, stop := startServer(t, engine.Config{Shards: 1, Order: 2, Levels: 8})
	defer stop()
	proxy := startFlakyProxy(t, addr)
	defer proxy.ln.Close()

	c, err := DialOptions(proxy.ln.Addr().String(), ClientOptions{
		ReadTimeout:  200 * time.Millisecond,
		WriteTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	proxy.mode.Store(proxyBlackhole)
	start := time.Now()
	_, err = c.Do([]Op{{Kind: OpPush, Value: 9, Meta: 9}})
	if err == nil {
		t.Fatal("dead peer answered")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("dead-peer read hung %v", d)
	}
}

// TestPerRequestTimeout bounds one attempt with DoID's timeout against
// a stalled peer.
func TestPerRequestTimeout(t *testing.T) {
	addr, stop := startServer(t, engine.Config{Shards: 1, Order: 2, Levels: 8})
	defer stop()
	proxy := startFlakyProxy(t, addr)
	defer proxy.ln.Close()

	c, err := Dial(proxy.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	proxy.mode.Store(proxyBlackhole)
	_, err = c.DoID(1, []Op{{Kind: OpPop}}, 100*time.Millisecond)
	if !errors.Is(err, ErrRequestTimeout) {
		t.Fatalf("err = %v, want ErrRequestTimeout", err)
	}
}

// killableServer is startServer with an abrupt stop: a short grace
// then force-closed connections, errors ignored — for tests that kill
// a server out from under live clients.
func killableServer(t *testing.T, cfg engine.Config) (string, func()) {
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
	go srv.Serve(ln)
	var once atomic.Bool
	return ln.Addr().String(), func() {
		if !once.CompareAndSwap(false, true) {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		_ = srv.Shutdown(ctx)
		e.Close()
	}
}

// TestResilientFailover rotates to the standby address when the
// primary address stops accepting.
func TestResilientFailover(t *testing.T) {
	addr1, stop1 := killableServer(t, engine.Config{Shards: 1, Order: 2, Levels: 8})
	addr2, stop2 := killableServer(t, engine.Config{Shards: 1, Order: 2, Levels: 8})
	defer stop2()

	rc, err := NewResilientClient(ResilientOptions{
		Addrs:          []string{addr1, addr2},
		RequestTimeout: time.Second,
		BaseDelay:      time.Millisecond,
		MaxDelay:       10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	if _, err := rc.Do([]Op{{Kind: OpPush, Value: 1, Meta: 1}}); err != nil {
		t.Fatal(err)
	}
	stop1() // primary gone
	if _, err := rc.Do([]Op{{Kind: OpPush, Value: 2, Meta: 2}}); err != nil {
		t.Fatalf("post-failover push: %v", err)
	}
	if s := rc.Stats(); s.Failovers == 0 {
		t.Fatalf("no failover recorded: %+v", s)
	}
	if rc.Addr() != addr2 {
		t.Fatalf("client on %s, want standby %s", rc.Addr(), addr2)
	}
}

// TestDedupWindowMiss retries an id the server has already evicted
// from its replay window: the server must answer StatusDedupMiss and
// the client must surface it as the typed permanent error rather than
// silently re-executing.
func TestDedupWindowMiss(t *testing.T) {
	e, err := engine.New(engine.Config{Shards: 1, Order: 2, Levels: 8})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerConfig(e, ServerConfig{DedupWindow: 2})
	go srv.Serve(ln)
	defer func() { e.Close() }()
	defer proxyShutdown(t, srv)

	const session = 0xD00D
	c, err := DialOptions(ln.Addr().String(), ClientOptions{Session: session})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for id := uint64(1); id <= 4; id++ { // window 2: ids 1,2 evicted
		if _, err := c.DoID(id, []Op{{Kind: OpPop}}, 0); err != nil {
			t.Fatal(err)
		}
	}
	_, err = c.DoID(1, []Op{{Kind: OpPop}}, 0)
	var se *ServerError
	if !errors.As(err, &se) || se.Code != StatusDedupMiss {
		t.Fatalf("evicted-id retry: %v, want StatusDedupMiss", err)
	}
}

func proxyShutdown(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
}
