package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
)

// ServerConfig tunes a Server's liveness, overload, and retry-dedup
// behavior. The zero value disables all of it (no deadlines, no
// shedding, dedup with default window for enrolled sessions).
type ServerConfig struct {
	// IdleTimeout bounds how long a connection may sit between frames;
	// a dead peer is reaped instead of holding a reader goroutine
	// forever. Zero disables. Replication streams are exempt once
	// handed off.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write. Zero disables.
	WriteTimeout time.Duration
	// MaxInflight caps the responses queued (unwritten) per connection;
	// past it, batches are shed with StatusOverloaded instead of
	// executed — a slow-reading client cannot pin server memory. Zero
	// disables.
	MaxInflight int
	// DedupWindow is how many responses the server caches per enrolled
	// session for retry dedup (default 4096). A retried id older than
	// the window gets StatusDedupMiss.
	DedupWindow int
	// DedupTTL is how long an idle session's cache is kept (default
	// 5m).
	DedupTTL time.Duration
	// Tracer, when non-nil, traces every TBatch request's lifecycle:
	// the server stamps issue/decode/commit/ack/write, the engine
	// stamps enqueue/dequeue/apply, and whichever goroutine writes the
	// response finishes the span (histogram aggregation plus sampled
	// Chrome-trace export, one track per connection). Nil disables
	// tracing at one branch per frame.
	Tracer *obs.Tracer
}

// withDefaults fills the zero values that have defaults.
func (c ServerConfig) withDefaults() ServerConfig {
	if c.DedupWindow <= 0 {
		c.DedupWindow = 4096
	}
	if c.DedupTTL <= 0 {
		c.DedupTTL = 5 * time.Minute
	}
	return c
}

// BatchHook observes every executed batch before its response is sent:
// the decoded engine ops, their results (carrying Shard/LSN for
// successful mutations), the dedup identity (session is 0 for
// unenrolled connections), and the already-encoded TBatchOK payload.
// It is the replication tap — the node layer turns each call into an
// atomic log group. Calls never overlap and come in the order the
// engine executed the batches, so per shard the results' LSNs rise
// from call to call: the server takes a tap lock under the engine's
// execution lock (SubmitTraced's then) and releases it when the hook
// returns, hand over hand, so the next batch executes while this one
// is tapped. The ops/results slices are reused across requests;
// implementations must copy what they keep. A non-nil returned func is
// the response's gate (synchronous replication): the connection's
// writer calls it — once, after flushing the responses ahead of this
// one — and only encodes the response when it returns true, so the
// reader is already executing the connection's next frame while the
// gate blocks. A gate that returns false withholds the response: the
// writer drops it and everything queued behind it and closes the
// connection, so the client sees a failed request — which it retries —
// rather than an answer nobody can vouch for. A gate must return in
// bounded time (replic bounds it with SyncTimeout) and be safe to call
// from a goroutine other than the one the hook ran on.
type BatchHook func(session, reqID uint64, ops []engine.Op, results []engine.Result, resp []byte) func() bool

type (
	// ReplHandler takes ownership of a connection that opened a
	// replication stream (TReplHello): the server has stopped its
	// reader and writer for that conn; the handler runs the replication
	// protocol and returns when the stream ends.
	ReplHandler func(conn net.Conn, hello Frame)
	// FetchHandler answers TReplFetch frames (anti-entropy repair
	// reads): it receives the request payload and returns the TReplChunk
	// payload. The codec is internal/replic's; wire treats both as
	// opaque. An error answers the request with a StatusRefused TError
	// without killing the connection — one unservable file must not
	// abort a repair session fetching several.
	FetchHandler func(payload []byte) ([]byte, error)
	// OwnerGate vets each push against the node's owned slice of the
	// cluster key space, before the op reaches the engine. A refused
	// push gets a per-op StatusNotOwner result whose Value is the
	// returned map version — the redirect a routing client acts on.
	// Pops and peeks are never gated: cross-node strict-merge PopMin
	// reads every node's minimum regardless of who owns which band.
	// Called from connection goroutines; must be safe for concurrent
	// use and cheap (it sits on the hot path).
	OwnerGate func(op Op) (owned bool, mapVersion uint64)
	// ClusterHello answers TClusterHello: it receives the requester's
	// map version and returns the encoded local map when newer, or nil
	// (sent as an empty TClusterMap) when the requester is current.
	ClusterHello func(sinceVersion uint64) []byte
	// ClusterSink ingests an unsolicited TClusterMap push (gossip):
	// it may adopt the offered map and returns an optional reply
	// payload — the local map when it is the newer one, nil otherwise —
	// so one exchange converges both peers. The codec is
	// internal/cluster's; wire treats the payloads as opaque.
	ClusterSink func(payload []byte) []byte
)

// Server serves an engine over the wire protocol. Each accepted
// connection gets a reader goroutine (decode, execute against the
// engine, answer) and a writer goroutine. The reader writes an ungated
// response itself when the writer holds nothing, so an unloaded round
// trip costs no goroutine hop. Otherwise the response queues for the
// writer, which coalesces: it collects every response already queued
// before flushing, so a pipelined client costs one syscall per pipeline
// window, not one per response. The writer is also where a response
// gated by the batch hook waits for its gate (see writeLoop), so a
// replication round trip never stalls the connection's reader.
type Server struct {
	eng *engine.Engine
	cfg ServerConfig

	// serving gates TBatch traffic: a replication follower keeps it
	// false until promoted, answering queue traffic with
	// StatusNotPrimary so clients fail over.
	serving atomic.Bool

	onBatch BatchHook
	tapMu   sync.Mutex // orders and serialises onBatch calls
	onRepl  ReplHandler
	onFetch FetchHandler

	onOwner        OwnerGate
	onClusterHello ClusterHello
	onClusterSink  ClusterSink

	dedup dedupTable

	// connSeq numbers accepted connections; the id doubles as the
	// request-trace track so sampled spans from one connection share a
	// lane in the viewer.
	connSeq atomic.Int64

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	// closed is set, under mu, when Shutdown begins; Closing reads it
	// without the lock.
	closed atomic.Bool
	wg     sync.WaitGroup
}

// NewServer wraps an engine with a zero config; call Serve to accept
// connections.
func NewServer(e *engine.Engine) *Server {
	return NewServerConfig(e, ServerConfig{})
}

// NewServerConfig is NewServer with explicit config.
func NewServerConfig(e *engine.Engine, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{eng: e, cfg: cfg, conns: map[net.Conn]struct{}{}}
	s.serving.Store(true)
	s.dedup.init(cfg.DedupWindow, cfg.DedupTTL)
	return s
}

// SetServing flips the TBatch gate: false answers queue traffic with
// StatusNotPrimary (follower mode), true serves it (primary mode).
func (s *Server) SetServing(v bool) { s.serving.Store(v) }

// Serving reports the current gate state.
func (s *Server) Serving() bool { return s.serving.Load() }

// SetBatchHook installs the batch tap. Call before Serve.
func (s *Server) SetBatchHook(h BatchHook) { s.onBatch = h }

// SetReplHandler installs the replication-stream acceptor. Call before
// Serve.
func (s *Server) SetReplHandler(h ReplHandler) { s.onRepl = h }

// SetFetchHandler installs the anti-entropy fetch responder. Call
// before Serve.
func (s *Server) SetFetchHandler(h FetchHandler) { s.onFetch = h }

// SetOwnerGate installs the cluster push-ownership check. Call before
// Serve.
func (s *Server) SetOwnerGate(g OwnerGate) { s.onOwner = g }

// SetClusterHandlers installs the cluster-map exchange responders
// (TClusterHello and gossiped TClusterMap). Call before Serve.
func (s *Server) SetClusterHandlers(hello ClusterHello, sink ClusterSink) {
	s.onClusterHello = hello
	s.onClusterSink = sink
}

// InstallDedup inserts a cached response into a session's dedup cache —
// the follower's side of replicated dedup state, so a client retrying
// against a freshly promoted primary still gets the original answer.
func (s *Server) InstallDedup(session, reqID uint64, resp []byte) {
	if session == 0 {
		return
	}
	sess := s.dedup.get(session)
	sess.mu.Lock()
	sess.put(reqID, resp, s.cfg.DedupWindow)
	sess.mu.Unlock()
}

// Serve accepts connections on ln until Shutdown (which returns
// net.ErrClosed here) or a fatal accept error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// Closing reports whether Shutdown has begun.
func (s *Server) Closing() bool { return s.closed.Load() }

// Shutdown stops accepting, then waits for every connection to drain
// (clients closing after their final response) until ctx expires, at
// which point remaining connections are closed forcibly. The engine is
// not touched — the caller owns its Close/Checkpoint sequence.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed.Store(true)
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// response is one frame headed for a connection. sp, when non-nil, is
// the request's trace span: whichever goroutine writes the bytes stamps
// StageWrite once they hit the socket and finishes the span. wait, when
// non-nil, is the batch hook's gate: the writer calls it and, when it
// returns true, stamps StageAck before the response may join a write.
type response struct {
	typ     Type
	id      uint64
	payload []byte
	sp      *obs.Span
	wait    func() bool
}

// serveConn runs one connection's read-execute loop plus its coalescing
// writer.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	outCap := 128
	if s.cfg.MaxInflight >= outCap {
		outCap = s.cfg.MaxInflight + 8
	}
	tracer := s.cfg.Tracer
	connID := s.connSeq.Add(1)
	tracer.NameTrack(connID, "conn "+conn.RemoteAddr().String())

	in := bufio.NewReader(conn)
	out := &connOut{conn: conn, in: in, q: make(chan response, outCap), writeTimeout: s.cfg.WriteTimeout, tracer: tracer}
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		out.writeLoop()
	}()
	writerStopped := false
	stopWriter := func() {
		if !writerStopped {
			writerStopped = true
			close(out.q)
			wwg.Wait()
		}
	}
	defer stopWriter()

	var (
		ops     []engine.Op
		results []engine.Result
		wres    []Result
		engIdx  []int
		peeks   []int
		session uint64
		sess    *sessionState
	)
	for {
		// The span origin: when the server turned to this request. Under
		// a loaded pipeline this is the moment the previous frame's
		// execution finished, so the decode segment covers socket wait +
		// read + parse.
		var issueNs int64
		if tracer != nil {
			issueNs = obs.SpanNow()
		}
		if s.cfg.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		f, err := ReadFrame(in)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				out.sendErr(0, StatusInvalid, err)
			}
			return
		}
		switch f.Type {
		case THello:
			v, sid, err := ParseHello(f.Payload)
			if err != nil || v != Version {
				out.sendErr(f.ID, StatusInvalid, fmt.Errorf("unsupported version %d", v))
				return
			}
			session = sid
			if session != 0 {
				sess = s.dedup.get(session)
			}
			out.send(response{THelloOK, f.ID, AppendHelloOK(nil, HelloInfo{
				Version:  Version,
				Shards:   uint32(s.eng.Shards()),
				Capacity: uint64(s.eng.Cap()),
			}), nil, nil})
		case TBatch:
			if !s.serving.Load() {
				out.sendErr(f.ID, StatusNotPrimary, errors.New("replication follower: not serving queue traffic"))
				return
			}
			wireOps, err := ParseOps(f.Payload)
			if err != nil {
				out.sendErr(f.ID, StatusInvalid, err)
				return
			}
			sp := tracer.Begin(connID, issueNs)
			sp.Stamp(obs.StageDecode)
			// At-most-once comes before load shedding: a retried id
			// whose original already executed must get its cached
			// response verbatim — a fabricated overload refusal would
			// send the client back to re-issue ops that already
			// applied. Serving the cache is cheap and executes nothing.
			if sess != nil {
				sess.mu.Lock()
				if resp, ok := sess.cache[f.ID]; ok {
					sess.mu.Unlock()
					out.send(response{TBatchOK, f.ID, resp, sp, nil})
					continue
				}
				if f.ID <= sess.evictedMax {
					sess.mu.Unlock()
					out.sendErr(f.ID, StatusDedupMiss, fmt.Errorf("request id %d outside dedup window", f.ID))
					return
				}
			}
			// Per-connection overload shed: queued-but-unwritten
			// responses past the cap mean the client is not keeping up
			// with its own pipeline; refuse cheaply instead of
			// executing into a backlog. Shed batches are never cached —
			// a retry may execute.
			if s.cfg.MaxInflight > 0 && len(out.q) >= s.cfg.MaxInflight {
				if sess != nil {
					sess.mu.Unlock()
				}
				out.send(response{TBatchOK, f.ID, appendShedResults(nil, len(wireOps)), sp, nil})
				continue
			}
			// Front-door triage: ownership-refused pushes and peeks are
			// answered here without touching the engine; everything else
			// becomes an engine op, with engIdx mapping each engine
			// result back to its slot in the wire batch.
			ops = ops[:0]
			engIdx = engIdx[:0]
			peeks = peeks[:0]
			if cap(wres) < len(wireOps) {
				wres = make([]Result, len(wireOps))
			}
			wres = wres[:len(wireOps)]
			for wi, op := range wireOps {
				switch op.Kind {
				case OpPush:
					if s.onOwner != nil {
						if owned, ver := s.onOwner(op); !owned {
							wres[wi] = Result{Status: StatusNotOwner, Value: ver}
							continue
						}
					}
					ops = append(ops, engine.PushOp(core.Element{Value: op.Value, Meta: op.Meta}))
					engIdx = append(engIdx, wi)
				case OpPeek:
					peeks = append(peeks, wi)
				case OpPopBounded:
					ops = append(ops, engine.PopBoundedOp(op.Value))
					engIdx = append(engIdx, wi)
				default:
					ops = append(ops, engine.PopOp())
					engIdx = append(engIdx, wi)
				}
			}
			if cap(results) < len(ops) {
				results = make([]engine.Result, len(ops))
			}
			results = results[:len(ops)]
			// With a hook, the tap lock is taken under the execution lock
			// and released after the hook: hook calls run one at a time,
			// in execution order.
			var tapLock func()
			if s.onBatch != nil {
				tapLock = s.tapMu.Lock
			}
			s.eng.SubmitTraced(ops, results, sp, tapLock)
			if sp != nil {
				for i := range results {
					// A bounded pop's miss is the merge finding where a
					// sibling takes over, not a fault. Errored spans are
					// admitted to the flight recorder unconditionally.
					if err := results[i].Err; err != nil && !errors.Is(err, engine.ErrMiss) {
						sp.MarkError()
						break
					}
				}
			}
			for i, r := range results {
				wres[engIdx[i]] = Result{Status: statusOf(r.Err), Value: r.Elem.Value, Meta: r.Elem.Meta}
			}
			// Peeks read the published heads after the batch's accepted
			// ops have applied, so a [pop, peek] pair returns the popped
			// element and the node's next head in one round trip — the
			// cluster client's head-cache refresh piggyback.
			for _, wi := range peeks {
				if el, ok := s.eng.PeekMin(); ok {
					wres[wi] = Result{Status: StatusOK, Value: el.Value, Meta: el.Meta}
				} else {
					wres[wi] = Result{Status: StatusEmpty}
				}
			}
			payload := make([]byte, 0, 4+len(wres)*resultSize)
			payload = AppendResults(payload, wres)
			var wait func() bool
			if s.onBatch != nil {
				wait = s.onBatch(session, f.ID, ops, results, payload)
				s.tapMu.Unlock()
			}
			// Commit and ack are stamped unconditionally: without a
			// replication/WAL hook (or without sync mode) they are
			// zero-width segments, keeping all eight stage histograms
			// populated so dashboards need no per-mode special cases.
			sp.Stamp(obs.StageCommit)
			if sess != nil {
				sess.put(f.ID, payload, s.cfg.DedupWindow)
				sess.mu.Unlock()
			}
			// A gated response's ack belongs to the writer, which waits
			// for it there so this goroutine can turn to the next frame;
			// the bounded out channel caps how many can be un-acked.
			if wait == nil {
				sp.Stamp(obs.StageAck)
			}
			out.send(response{TBatchOK, f.ID, payload, sp, wait})
		case TClusterHello:
			if s.onClusterHello == nil {
				out.sendErr(f.ID, StatusInvalid, errors.New("cluster serving not enabled"))
				return
			}
			since, err := ParseClusterHello(f.Payload)
			if err != nil {
				out.sendErr(f.ID, StatusInvalid, err)
				return
			}
			out.send(response{TClusterMap, f.ID, s.onClusterHello(since), nil, nil})
		case TClusterMap:
			if s.onClusterSink == nil {
				out.sendErr(f.ID, StatusInvalid, errors.New("cluster serving not enabled"))
				return
			}
			// The sink decides adoption; the reply (possibly empty)
			// carries the local map back when it is the newer one, so a
			// single gossip exchange converges both peers.
			out.send(response{TClusterMap, f.ID, s.onClusterSink(f.Payload), nil, nil})
		case TReplFetch:
			if s.onFetch == nil {
				out.sendErr(f.ID, StatusInvalid, errors.New("anti-entropy fetch not enabled"))
				return
			}
			resp, err := s.onFetch(f.Payload)
			if err != nil {
				out.sendErr(f.ID, StatusRefused, err)
				continue
			}
			out.send(response{TReplChunk, f.ID, resp, nil, nil})
		case TReplHello:
			if s.onRepl == nil {
				out.sendErr(f.ID, StatusInvalid, errors.New("replication not enabled"))
				return
			}
			// Hand the connection, with any bytes already buffered, to
			// the replication layer: stop our writer first so frames
			// cannot interleave, clear the idle deadline (the stream
			// manages its own liveness), and run the stream to
			// completion in this goroutine so Shutdown still accounts
			// for it.
			stopWriter()
			conn.SetReadDeadline(time.Time{})
			s.onRepl(bufferedConn{conn, in}, f)
			return
		default:
			out.sendErr(f.ID, StatusInvalid, fmt.Errorf("unexpected frame type %d", f.Type))
			return
		}
	}
}

// appendShedResults encodes a TBatchOK payload of n StatusOverloaded
// results.
func appendShedResults(dst []byte, n int) []byte {
	shed := make([]Result, n)
	for i := range shed {
		shed[i] = Result{Status: StatusOverloaded}
	}
	return AppendResults(dst, shed)
}

// statusOf maps an engine error to its wire status.
func statusOf(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, core.ErrEmpty):
		return StatusEmpty
	case errors.Is(err, core.ErrFull):
		return StatusFull
	case errors.Is(err, engine.ErrBackpressure):
		return StatusBackpressure
	case errors.Is(err, engine.ErrClosed):
		return StatusClosed
	case errors.Is(err, engine.ErrMiss):
		return StatusMiss
	default:
		return StatusInvalid
	}
}

// connOut is one connection's response path. Its writer goroutine
// (writeLoop) coalesces queued responses and runs their sync gates; the
// reader writes an ungated response itself when the writer holds
// nothing and no further request is already buffered. Every response
// write holds mu, and the reader writes only when nothing queued
// earlier is still unwritten, so bytes leave in queue order.
type connOut struct {
	conn         net.Conn
	in           *bufio.Reader // the reader's input; only the reader calls send
	q            chan response
	writeTimeout time.Duration
	tracer       *obs.Tracer

	mu   sync.Mutex
	held int    // responses queued, or taken but unwritten, by the writer
	buf  []byte // the reader's encode buffer for direct writes
}

// send writes an ungated response at once when the writer holds
// nothing and no request is waiting in the input buffer, and queues it
// for the writer otherwise: a pipelining client's responses coalesce
// there. A failed direct write closes the conn, which the reader's next
// read notices.
func (w *connOut) send(r response) { w.respond(r, true) }

// sendErr sends a TError frame; best-effort if the writer is backed up.
func (w *connOut) sendErr(id uint64, code Status, err error) {
	w.respond(response{TError, id, append([]byte{byte(code)}, err.Error()...), nil, nil}, false)
}

func (w *connOut) respond(r response, block bool) {
	w.mu.Lock()
	if r.wait == nil && w.held == 0 && w.in.Buffered() == 0 {
		w.buf = AppendFrame(w.buf[:0], r.typ, r.id, r.payload)
		err := w.write(w.buf)
		w.mu.Unlock()
		w.finish(r.sp, err)
		if err != nil {
			w.conn.Close()
		}
		return
	}
	w.held++
	w.mu.Unlock()
	if block {
		w.q <- r
		return
	}
	select {
	case w.q <- r:
	default:
		w.mu.Lock()
		w.held--
		w.mu.Unlock()
	}
}

// write puts encoded frames on the socket; callers hold mu.
func (w *connOut) write(b []byte) error {
	if w.writeTimeout > 0 {
		w.conn.SetWriteDeadline(time.Now().Add(w.writeTimeout))
	}
	_, err := w.conn.Write(b)
	return err
}

// finish stamps a written response's span and finishes it. On a failed
// write the span finishes unstamped — its last stage stays wherever
// execution got to.
func (w *connOut) finish(sp *obs.Span, err error) {
	if err == nil {
		sp.Stamp(obs.StageWrite)
	}
	w.tracer.Finish(sp)
}

// writeLoop is the per-connection coalescing writer: take one
// response, then opportunistically drain everything else already
// queued into the same buffer, write once. Each flushed response's
// span gets its StageWrite stamp after the socket write and is
// finished (aggregated, sampled, pooled) here.
//
// It is also where a gated response waits for its follower ack. Before
// blocking in a gate the writer flushes what it has already encoded —
// those responses are released and must not sit behind another's round
// trip — and a gated response is encoded only once its gate returns, so
// no response reaches the socket before its ack (or its sync timeout)
// and responses leave in the order the reader queued them. A gate that
// withholds its response kills the connection.
func (w *connOut) writeLoop() {
	buf := make([]byte, 0, 64<<10)
	var spans []*obs.Span
	n := 0 // responses encoded in buf
	// flush writes the encoded responses and finishes their spans; false
	// means the connection is dead.
	flush := func() bool {
		if n == 0 {
			return true
		}
		w.mu.Lock()
		err := w.write(buf)
		w.held -= n
		w.mu.Unlock()
		for _, sp := range spans {
			w.finish(sp, err)
		}
		buf, spans, n = buf[:0], spans[:0], 0
		return err == nil
	}
	dead := false
	for r := range w.q {
		if dead {
			// The reader notices the dead conn on its own; until it closes
			// the queue, just finish the spans of responses nobody will read.
			w.tracer.Finish(r.sp)
			continue
		}
		if r.wait != nil {
			if dead = !flush(); dead {
				w.tracer.Finish(r.sp)
				continue
			}
			if !r.wait() {
				// Withheld: no byte of it, or of what queued behind it,
				// may reach the client.
				w.tracer.Finish(r.sp)
				w.conn.Close()
				dead = true
				continue
			}
			r.sp.Stamp(obs.StageAck)
		}
		buf = AppendFrame(buf, r.typ, r.id, r.payload)
		n++
		if r.sp != nil {
			spans = append(spans, r.sp)
		}
		// Coalesce while more is queued (this goroutine is the only
		// receiver, so a nonempty queue cannot drain under it); write once
		// it is not.
		if len(w.q) == 0 {
			dead = !flush()
		}
	}
}

// bufferedConn is a connection whose first reads drain the bytes its
// previous reader had already buffered.
type bufferedConn struct {
	net.Conn
	r *bufio.Reader
}

func (c bufferedConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// sessionState is one session's retry-dedup cache: responses by request
// id, insertion-ordered for eviction, plus the high-water mark of
// evicted ids — a retried id at or below it is a dedup miss (the server
// cannot prove the original did not execute). The mutex also serializes
// the session's check-execute-store sequence, which is what makes a
// retry racing its original safe.
type sessionState struct {
	mu         sync.Mutex
	cache      map[uint64][]byte
	order      []uint64
	evictedMax uint64
	lastSeen   atomic.Int64 // unix nanos
}

// put caches a response, evicting the oldest entries past the window.
// Callers hold mu.
func (ss *sessionState) put(id uint64, resp []byte, window int) {
	if _, ok := ss.cache[id]; ok {
		return
	}
	ss.cache[id] = resp
	ss.order = append(ss.order, id)
	for len(ss.cache) > window {
		old := ss.order[0]
		ss.order = ss.order[1:]
		delete(ss.cache, old)
		if old > ss.evictedMax {
			ss.evictedMax = old
		}
	}
}

// dedupTable maps sessions to their caches, with TTL-based reaping of
// idle sessions.
type dedupTable struct {
	mu       sync.Mutex
	sessions map[uint64]*sessionState
	window   int
	ttl      time.Duration
}

func (t *dedupTable) init(window int, ttl time.Duration) {
	t.sessions = map[uint64]*sessionState{}
	t.window = window
	t.ttl = ttl
}

// get returns (creating if needed) the session's state and refreshes
// its TTL, sweeping expired sessions on creation.
func (t *dedupTable) get(session uint64) *sessionState {
	now := time.Now().UnixNano()
	t.mu.Lock()
	ss := t.sessions[session]
	if ss == nil {
		for id, other := range t.sessions {
			if now-other.lastSeen.Load() > int64(t.ttl) {
				delete(t.sessions, id)
			}
		}
		ss = &sessionState{cache: map[uint64][]byte{}}
		t.sessions[session] = ss
	}
	t.mu.Unlock()
	ss.lastSeen.Store(now)
	return ss
}
