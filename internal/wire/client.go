package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Client errors beyond the frame-level ones.
var (
	// ErrRequestTimeout reports that a DoID deadline expired before the
	// response arrived. The connection is closed (poisoned): the server
	// may still execute the request, so the op's fate is unknown until a
	// retry with the same id is answered — from the server's dedup cache
	// if the original did execute.
	ErrRequestTimeout = errors.New("wire: request timed out")
	// ErrConnClosed reports a Do against a client whose connection has
	// been torn down.
	ErrConnClosed = errors.New("wire: connection closed")
)

// ServerError is a TError frame surfaced as a typed error, so callers
// can branch on the status code (StatusNotPrimary → fail over,
// StatusDedupMiss → the op's fate is indeterminate). Whether it ended
// the connection is the status's Status.EndsConn: a StatusRefused one
// failed only its own request, every other one the whole connection.
type ServerError struct {
	Code Status
	Msg  string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("wire: server error %s: %s", e.Code, e.Msg)
}

// ClientOptions tunes a Client's liveness and retry-dedup behavior. The
// zero value matches the pre-deadline behavior: no timeouts, no
// session.
type ClientOptions struct {
	// Session, when nonzero, enrolls the connection in the server's
	// retry-dedup cache: a request id retried under the same session —
	// typically on a new connection after a failure — is answered from
	// the cached response instead of re-executed. Ids must be assigned
	// once per logical request and never reused for different payloads.
	Session uint64
	// ReadTimeout bounds how long the client waits for bytes from the
	// server while requests are in flight. It is a progress deadline,
	// re-armed before every frame read, so a slow but live server does
	// not trip it; a dead peer does. Zero disables.
	ReadTimeout time.Duration
	// WriteTimeout bounds each frame write. Zero disables.
	WriteTimeout time.Duration
}

// respMsg is one request's terminal outcome inside the client.
type respMsg struct {
	results []Result
	err     error
}

// Client is a pipelined wire-protocol client: any number of goroutines
// may call Do concurrently; each call gets a fresh request id, the
// frames interleave on the connection, and responses are matched back
// by id. The write path batches at two levels — many queue operations
// per frame, and the kernel's socket buffering across frames — so the
// per-operation syscall cost shrinks with both the batch size and the
// number of concurrent callers.
//
// There is no reader goroutine. A one-slot read token is held by
// whichever waiting caller is reading: it reads frames and hands each
// to its caller by id until its own response arrives, then passes the
// token on. A lone caller therefore reads its own response, with no
// goroutine hop; concurrent callers wait on their own response, the
// token, or the connection's failure, whichever comes first.
type Client struct {
	conn net.Conn
	r    *bufio.Reader // conn's read side, so a response is one read
	info HelloInfo
	opts ClientOptions

	wmu sync.Mutex // serialises frame writes

	// rtok is the read token: whoever receives from it owns conn's read
	// side, and armed (whether a read deadline is set), until it sends
	// it back.
	rtok  chan struct{}
	armed bool

	nextID  atomic.Uint64
	pmu     sync.Mutex
	pending map[uint64]chan respMsg
	readErr error
	done    chan struct{}
}

// Dial connects and performs the Hello handshake.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, ClientOptions{})
}

// DialOptions is Dial with explicit options.
func DialOptions(addr string, opts ClientOptions) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClientOptions(conn, opts)
}

// NewClient performs the handshake over an established connection
// (net.Pipe in tests, TCP in production).
func NewClient(conn net.Conn) (*Client, error) {
	return NewClientOptions(conn, ClientOptions{})
}

// NewClientOptions is NewClient with explicit options.
func NewClientOptions(conn net.Conn, opts ClientOptions) (*Client, error) {
	c := &Client{
		conn:    conn,
		r:       bufio.NewReader(conn),
		opts:    opts,
		rtok:    make(chan struct{}, 1),
		pending: map[uint64]chan respMsg{},
		done:    make(chan struct{}),
	}
	c.rtok <- struct{}{}
	// The handshake runs under the read/write deadlines too: a dead or
	// wedged server fails the dial instead of hanging it.
	if opts.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(opts.WriteTimeout))
	}
	if opts.ReadTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(opts.ReadTimeout))
	}
	if err := WriteFrame(conn, THello, 0, AppendHello(nil, opts.Session)); err != nil {
		conn.Close()
		return nil, err
	}
	f, err := ReadFrame(c.r)
	if err != nil {
		conn.Close()
		return nil, err
	}
	switch f.Type {
	case THelloOK:
	case TError:
		conn.Close()
		return nil, parseServerError(f.Payload)
	default:
		conn.Close()
		return nil, fmt.Errorf("wire: handshake got frame type %d", f.Type)
	}
	if c.info, err = ParseHelloOK(f.Payload); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetWriteDeadline(time.Time{})
	conn.SetReadDeadline(time.Time{})
	return c, nil
}

// Info returns the server's handshake summary (shards, capacity).
func (c *Client) Info() HelloInfo { return c.info }

// Close tears the connection down; in-flight Do calls fail.
func (c *Client) Close() error { return c.conn.Close() }

// Do submits one batch of operations and blocks for its results (one
// per op, in order). Concurrent Do calls pipeline on the connection.
func (c *Client) Do(ops []Op) ([]Result, error) {
	return c.DoID(c.nextID.Add(1), ops, 0)
}

// DoID is Do with a caller-assigned request id and an optional
// per-request timeout: SendID, then Wait. Explicit ids are the retry
// handle: a request that failed with an ambiguous outcome (timeout,
// dead connection) can be reissued on a new connection under the same
// session and id, and the server's dedup cache guarantees at-most-once
// execution. Ids must be unique per logical request within a session.
// On timeout the connection is closed — a late response can no longer
// be matched safely, so the conn is poisoned rather than left live.
func (c *Client) DoID(id uint64, ops []Op, timeout time.Duration) ([]Result, error) {
	call := c.SendID(id, ops, timeout)
	return call.Wait()
}

// Call is a request written to a Client whose response has not been
// read: the first half of DoID. One goroutine can send on several
// connections before it waits on any, so their round trips overlap.
type Call struct {
	c       *Client
	id      uint64
	n       int
	ch      chan respMsg
	timeout time.Duration
	err     error // the send failed; Wait returns it
}

// SendID registers id and writes its frame; Wait on the returned Call
// reads the response. The timeout runs from the start of Wait.
func (c *Client) SendID(id uint64, ops []Op, timeout time.Duration) Call {
	call := Call{c: c, id: id, n: len(ops), timeout: timeout}
	if len(ops) == 0 {
		return call
	}
	if len(ops) > MaxBatchOps {
		call.err = fmt.Errorf("wire: batch of %d exceeds MaxBatchOps %d", len(ops), MaxBatchOps)
		return call
	}
	ch := make(chan respMsg, 1)

	c.pmu.Lock()
	if c.readErr != nil {
		call.err = c.readErr
		c.pmu.Unlock()
		return call
	}
	if _, dup := c.pending[id]; dup {
		c.pmu.Unlock()
		call.err = fmt.Errorf("wire: request id %d already in flight", id)
		return call
	}
	c.pending[id] = ch
	c.pmu.Unlock()

	payload := AppendOps(make([]byte, 0, 4+len(ops)*opPushSize), ops)
	buf := AppendFrame(make([]byte, 0, HeaderSize+len(payload)+TrailerSize), TBatch, id, payload)
	c.wmu.Lock()
	if c.opts.WriteTimeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.opts.WriteTimeout))
	}
	_, err := c.conn.Write(buf)
	c.wmu.Unlock()
	if err != nil {
		c.forget(id)
		call.err = err
		return call
	}
	call.ch = ch
	return call
}

// Wait blocks for the call's results (one per op, in order), reading
// them itself when the connection's read token is free. Call it once.
func (call *Call) Wait() ([]Result, error) {
	if call.ch == nil {
		return nil, call.err
	}
	c := call.c
	var deadline time.Time
	if call.timeout > 0 {
		deadline = time.Now().Add(call.timeout)
	}
	// A free token is taken without arming a timer: the holder's
	// deadline is the conn's read deadline.
	select {
	case <-c.rtok:
		return c.readUntil(call.id, call.ch, deadline, call.n)
	default:
	}
	var expired <-chan time.Time
	if call.timeout > 0 {
		timer := time.NewTimer(call.timeout)
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case m := <-call.ch:
		return m.check(call.n)
	case <-c.rtok:
		return c.readUntil(call.id, call.ch, deadline, call.n)
	case <-expired:
		c.forget(call.id)
		c.conn.Close()
		return nil, ErrRequestTimeout
	case <-c.done:
		return nil, c.err()
	}
}

// readUntil runs with the read token held: it reads frames and hands
// each to its caller until id's own response arrives, then passes the
// token on. The conn's read deadline is the earlier of the caller's own
// (a miss is ErrRequestTimeout) and the ReadTimeout progress deadline
// (a miss fails the connection). A fatal read fails every pending call
// through done; the token then stays taken.
func (c *Client) readUntil(id uint64, ch chan respMsg, deadline time.Time, n int) ([]Result, error) {
	select {
	case m := <-ch: // handed over before the token came free
		c.rtok <- struct{}{}
		return m.check(n)
	default:
	}
	for {
		own := c.armRead(deadline)
		f, err := ReadFrame(c.r)
		if err != nil {
			if own && errors.Is(err, os.ErrDeadlineExceeded) {
				c.fail(err)
				return nil, ErrRequestTimeout
			}
			return nil, c.fail(err)
		}
		switch f.Type {
		case TBatchOK:
			results, err := ParseResults(f.Payload)
			if err != nil {
				return nil, c.fail(err)
			}
			if f.ID != id {
				c.deliver(f.ID, respMsg{results: results})
				continue
			}
			c.release(id)
			return respMsg{results: results}.check(n)
		case TError:
			serr := parseServerError(f.Payload)
			if !serr.Code.EndsConn() {
				// A refusal of one request: it fails alone and the
				// connection keeps serving the others.
				if f.ID == id {
					c.release(id)
					return nil, serr
				}
				if c.deliver(f.ID, respMsg{err: serr}) {
					continue
				}
			}
			// Any other TError ends the connection: its addressee gets
			// the server's error and every other pending request fails
			// with it via done.
			var err error = serr
			if f.ID == id {
				c.fail(err)
				return nil, err
			}
			if !c.deliver(f.ID, respMsg{err: err}) {
				// No addressee: the server could not attribute the fault
				// to a request (e.g. a frame that failed its CRC arrives
				// with an untrustworthy id). That is transport corruption,
				// not a semantic rejection — surface it as a plain
				// connection error so retry layers reconnect and retry
				// instead of giving up.
				err = fmt.Errorf("wire: connection failed: %v", err)
			}
			return nil, c.fail(err)
		default:
			return nil, c.fail(fmt.Errorf("wire: unexpected frame type %d", f.Type))
		}
	}
}

// release ends the token holder's wait for its own response: it drops
// id, disarms the read deadline when nothing else is pending, and
// passes the token on.
func (c *Client) release(id uint64) {
	if c.forget(id) == 0 && c.armed {
		c.conn.SetReadDeadline(time.Time{})
		c.armed = false
	}
	c.rtok <- struct{}{}
}

// armRead sets the read deadline for the token holder's next frame and
// reports whether the caller's own deadline is the one armed.
func (c *Client) armRead(deadline time.Time) (own bool) {
	d := deadline
	if c.opts.ReadTimeout > 0 {
		if p := time.Now().Add(c.opts.ReadTimeout); d.IsZero() || p.Before(d) {
			d = p
		}
	}
	if !d.IsZero() || c.armed {
		c.conn.SetReadDeadline(d)
		c.armed = !d.IsZero()
	}
	return !deadline.IsZero() && d.Equal(deadline)
}

// check validates a response against the request's op count.
func (m respMsg) check(n int) ([]Result, error) {
	if m.err != nil {
		return nil, m.err
	}
	if len(m.results) != n {
		return m.results, fmt.Errorf("wire: %d results for %d ops", len(m.results), n)
	}
	return m.results, nil
}

// forget drops a request from the pending table and returns how many
// remain in flight.
func (c *Client) forget(id uint64) int {
	c.pmu.Lock()
	delete(c.pending, id)
	n := len(c.pending)
	c.pmu.Unlock()
	return n
}

// deliver hands a response to its waiting caller; false when nobody
// waits for that id any more (it timed out, or the server invented it).
func (c *Client) deliver(id uint64, m respMsg) bool {
	c.pmu.Lock()
	ch := c.pending[id]
	delete(c.pending, id)
	c.pmu.Unlock()
	if ch != nil {
		ch <- m
	}
	return ch != nil
}

// fail records the connection's first fatal error, wakes every waiting
// call through done, closes the conn, and returns the recorded error.
func (c *Client) fail(err error) error {
	c.pmu.Lock()
	if c.readErr == nil {
		c.readErr = err
		close(c.done)
	}
	err = c.readErr
	c.pmu.Unlock()
	c.conn.Close()
	return err
}

// err is the connection's fatal error, once done is closed.
func (c *Client) err() error {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if c.readErr == nil {
		return ErrConnClosed
	}
	return c.readErr
}

// parseServerError decodes a TError payload (u8 status + message).
func parseServerError(p []byte) *ServerError {
	if len(p) == 0 {
		return &ServerError{Code: StatusInvalid, Msg: "server error"}
	}
	return &ServerError{Code: Status(p[0]), Msg: string(p[1:])}
}
