package wire

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrDedupMiss reports that a retried request id had fallen out of the
// server's dedup window: the server cannot say whether the original
// executed, so the operation's outcome is permanently indeterminate.
// ResilientClient surfaces it instead of retrying — a retry could
// double-apply.
var ErrDedupMiss = errors.New("wire: retried request outside server dedup window")

// ResilientOptions tunes a ResilientClient.
type ResilientOptions struct {
	// Addrs are the server addresses in preference order: primary
	// first, standbys after. On connection failure or StatusNotPrimary
	// the client rotates to the next address.
	Addrs []string
	// Session identifies this client in the servers' retry-dedup
	// caches; 0 picks a random nonzero session.
	Session uint64
	// RequestTimeout bounds each individual attempt (default 5s).
	RequestTimeout time.Duration
	// MaxAttempts bounds the retries per Do call; 0 retries without
	// bound (the chaos harness's mode — every op eventually resolves).
	MaxAttempts int
	// BaseDelay and MaxDelay shape the reconnect/retry backoff:
	// exponential from BaseDelay (default 5ms), capped at MaxDelay
	// (default 1s), with uniform jitter in [0.5,1.5)× to decorrelate
	// clients.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Conn holds the per-connection liveness options. Conn.Session is
	// overwritten with the resolved session.
	Conn ClientOptions
}

// ResilientStats are a ResilientClient's cumulative fault counters.
type ResilientStats struct {
	// Retries counts attempts after the first, across all Do calls.
	Retries uint64
	// Timeouts counts per-attempt request timeouts.
	Timeouts uint64
	// Reconnects counts successful re-dials after a connection died.
	Reconnects uint64
	// Failovers counts rotations to a different server address.
	Failovers uint64
	// DedupMisses counts permanently indeterminate operations — any
	// nonzero value means an acknowledged-exactly-once guarantee could
	// not be established for some op.
	DedupMisses uint64
}

// ResilientClient wraps Client with reconnection, failover, and
// at-most-once retries. Each logical request keeps one id for its whole
// retry lifetime; because every connection carries the same session id,
// the server answers a retried id from its dedup cache when the
// original did execute — an ack lost to a dead connection never becomes
// a double-apply. Do is Send plus Wait; a caller with requests for
// several servers Sends them all before it Waits on any. Safe for
// concurrent use.
type ResilientClient struct {
	opts ResilientOptions

	nextID atomic.Uint64

	mu      sync.Mutex
	c       *Client // live connection, nil when down
	addrIdx int
	dialed  bool // a first connection has succeeded
	closed  bool

	retries, timeouts, reconnects, failovers, dedupMisses atomic.Uint64
}

// NewResilientClient builds the client; connections are dialed lazily
// on first use.
func NewResilientClient(opts ResilientOptions) (*ResilientClient, error) {
	if len(opts.Addrs) == 0 {
		return nil, errors.New("wire: resilient client needs at least one address")
	}
	if opts.Session == 0 {
		for opts.Session == 0 {
			opts.Session = rand.Uint64()
		}
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 5 * time.Second
	}
	if opts.BaseDelay <= 0 {
		opts.BaseDelay = 5 * time.Millisecond
	}
	if opts.MaxDelay <= 0 {
		opts.MaxDelay = time.Second
	}
	opts.Conn.Session = opts.Session
	return &ResilientClient{opts: opts}, nil
}

// Session returns the resolved dedup session id.
func (rc *ResilientClient) Session() uint64 { return rc.opts.Session }

// Stats snapshots the fault counters.
func (rc *ResilientClient) Stats() ResilientStats {
	return ResilientStats{
		Retries:     rc.retries.Load(),
		Timeouts:    rc.timeouts.Load(),
		Reconnects:  rc.reconnects.Load(),
		Failovers:   rc.failovers.Load(),
		DedupMisses: rc.dedupMisses.Load(),
	}
}

// Addr returns the address currently preferred for connections.
func (rc *ResilientClient) Addr() string {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.opts.Addrs[rc.addrIdx]
}

// SetAddrs replaces the address list (e.g. after a permanent topology
// change); the current connection is kept until it fails.
func (rc *ResilientClient) SetAddrs(addrs []string) {
	if len(addrs) == 0 {
		return
	}
	rc.mu.Lock()
	rc.opts.Addrs = append([]string(nil), addrs...)
	rc.addrIdx = 0
	rc.mu.Unlock()
}

// Close tears down the current connection and stops future dials.
func (rc *ResilientClient) Close() error {
	rc.mu.Lock()
	rc.closed = true
	c := rc.c
	rc.c = nil
	rc.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}

// Do submits one batch with retries, reconnection, and failover: Send,
// then Wait. The returned results are exactly-once: either from the
// first execution or the server's dedup cache. A wrapped ErrDedupMiss
// means the outcome is indeterminate; any other error is terminal for
// this request (closed client, attempts exhausted).
func (rc *ResilientClient) Do(ops []Op) ([]Result, error) {
	p := rc.Send(ops)
	return p.Wait()
}

// Pending is a request sent through a ResilientClient whose outcome has
// not been read: Do split in two, so one goroutine can have requests in
// flight on several servers at once. ops must stay unchanged until Wait
// returns; a retry sends them again.
type Pending struct {
	rc   *ResilientClient
	ops  []Op
	id   uint64
	call Call  // the current attempt, on the connection it went out on
	err  error // the current attempt failed before it was sent
}

// Send takes a request id and makes the first attempt's write. Wait
// reads its outcome, retrying under the same id.
func (rc *ResilientClient) Send(ops []Op) Pending {
	p := Pending{rc: rc, ops: ops, id: rc.nextID.Add(1)}
	p.send()
	return p
}

// send makes one attempt's write on the live connection, dialing it
// when there is none.
func (p *Pending) send() {
	var c *Client
	if c, p.err = p.rc.conn(); p.err == nil {
		p.call = c.SendID(p.id, p.ops, p.rc.opts.RequestTimeout)
	}
}

// Wait reads the request's outcome, with the same exactly-once contract
// as Do: a failed attempt is retried under the same id after a backoff,
// on a fresh connection or the next address. Call it once.
func (p *Pending) Wait() ([]Result, error) {
	rc := p.rc
	var lastErr error
	for attempt := 0; rc.opts.MaxAttempts == 0 || attempt < rc.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			rc.retries.Add(1)
			rc.sleepBackoff(attempt)
			p.send()
		}
		if p.err != nil {
			if errors.Is(p.err, ErrConnClosed) {
				return nil, p.err
			}
			lastErr = p.err
			continue
		}
		results, err := p.call.Wait()
		if err == nil {
			return results, nil
		}
		lastErr = err
		var serr *ServerError
		switch {
		case errors.Is(err, ErrRequestTimeout):
			rc.timeouts.Add(1)
			rc.dropConn(p.call.c, false)
		case errors.As(err, &serr):
			switch serr.Code {
			case StatusNotPrimary:
				// This node is (still) a follower; rotate and retry.
				rc.dropConn(p.call.c, true)
			case StatusDedupMiss:
				rc.dedupMisses.Add(1)
				return nil, fmt.Errorf("%w: id %d: %v", ErrDedupMiss, p.id, err)
			default:
				// Other server errors are protocol-level and terminal.
				rc.dropConn(p.call.c, false)
				return nil, err
			}
		default:
			// Connection-level failure (reset, EOF, deadline on a dead
			// peer): drop and retry on a fresh connection.
			rc.dropConn(p.call.c, false)
		}
	}
	return nil, fmt.Errorf("wire: request %d failed after %d attempts: %w", p.id, rc.opts.MaxAttempts, lastErr)
}

// conn returns the live connection, dialing (with address rotation on
// failure) when there is none.
func (rc *ResilientClient) conn() (*Client, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.closed {
		return nil, ErrConnClosed
	}
	if rc.c != nil {
		return rc.c, nil
	}
	addr := rc.opts.Addrs[rc.addrIdx]
	c, err := DialOptions(addr, rc.opts.Conn)
	if err != nil {
		// Rotate so the next attempt tries the following address.
		rc.rotateLocked()
		return nil, err
	}
	rc.c = c
	if rc.dialed {
		rc.reconnects.Add(1)
	}
	rc.dialed = true
	return c, nil
}

// dropConn discards c if it is still current, optionally rotating to
// the next address first.
func (rc *ResilientClient) dropConn(c *Client, rotate bool) {
	c.Close()
	rc.mu.Lock()
	if rc.c == c {
		rc.c = nil
		if rotate {
			rc.rotateLocked()
		}
	}
	rc.mu.Unlock()
}

// rotateLocked advances to the next configured address.
func (rc *ResilientClient) rotateLocked() {
	if len(rc.opts.Addrs) > 1 {
		rc.addrIdx = (rc.addrIdx + 1) % len(rc.opts.Addrs)
		rc.failovers.Add(1)
	}
}

// sleepBackoff sleeps the capped exponential backoff with jitter for
// the given retry attempt (1-based).
func (rc *ResilientClient) sleepBackoff(attempt int) {
	d := rc.opts.BaseDelay << uint(attempt-1)
	if d <= 0 || d > rc.opts.MaxDelay {
		d = rc.opts.MaxDelay
	}
	// Uniform jitter in [0.5, 1.5)× decorrelates retry storms.
	d = time.Duration(float64(d) * (0.5 + rand.Float64()))
	time.Sleep(d)
}
