package replic

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Roles.
const (
	rolePrimary int32 = iota
	roleFollower
)

// Config parameterises a replication node.
type Config struct {
	// Engine is the geometry the engine was built with; it becomes the
	// replication manifest both sides compare.
	Engine engine.Config
	// PrimaryAddr, when nonempty, starts the node as a follower
	// streaming from that address; empty starts it as primary.
	PrimaryAddr string
	// Sync gates each dedup-enrolled response on the follower having
	// acknowledged the batch's log group — the zero-acked-op-loss mode.
	// Without it replication is asynchronous: faster, but ops acked
	// inside the replication lag are lost if the primary dies.
	Sync bool
	// SyncTimeout bounds the Sync ack wait; past it the node marks
	// itself Degraded and releases the response anyway (default 2s).
	SyncTimeout time.Duration
	// DialRetry is the follower's reconnect backoff floor (default
	// 50ms; doubles to 1s).
	DialRetry time.Duration
	// StreamTimeout bounds replication stream reads and writes on both
	// sides; heartbeats keep a healthy idle stream under it (default
	// 15s).
	StreamTimeout time.Duration
	// Logger, when set, receives structured replication events (attach,
	// detach, refusal, promotion, stream errors).
	Logger *slog.Logger
	// Flight, when set, receives every replication state transition
	// (attach, detach, caught-up, promotion, degrade, refusal, fatal
	// stream death) as FlightReplState events.
	Flight *obs.FlightRecorder
	// OnIncident, when set, fires on the transitions worth a bundle:
	// a follower's unrecoverable stream death and the first degrade.
	// Called from replication goroutines, a follower's possibly before
	// Attach has returned — keep it non-blocking (internal/node enqueues).
	OnIncident func(trigger, reason string)
	// OnPromote, when set, fires after a promotion completes — the node
	// is primary and serving. The cluster layer hooks it to bump its
	// map epoch and gossip the successor map so clients re-route.
	OnPromote func()
}

func (c Config) withDefaults() Config {
	if c.SyncTimeout <= 0 {
		c.SyncTimeout = 2 * time.Second
	}
	if c.DialRetry <= 0 {
		c.DialRetry = 50 * time.Millisecond
	}
	if c.StreamTimeout <= 0 {
		c.StreamTimeout = 15 * time.Second
	}
	return c
}

// heartbeatEvery is how often an idle primary sends an empty
// TReplRecords frame so the follower's stream deadline measures
// liveness, not traffic.
const heartbeatEvery = 3 * time.Second

// ackWaiter is one synchronous response blocked on the follower
// reaching seq.
type ackWaiter struct {
	seq uint64
	ch  chan struct{}
}

// newLogID mints a random nonzero log identity. Each node stamps its
// own log with one at birth; a resume position is only honoured
// against the log identity it was minted on.
func newLogID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// Node binds an engine and its wire server into a replication role. A
// primary taps executed batches into its log and serves follower
// streams; a follower holds the serving gate closed, applies the
// stream, and opens the gate on Promote. Attach installs the node's
// hooks on the server — call it before Serve.
type Node struct {
	cfg   Config
	man   Manifest
	eng   *engine.Engine
	srv   *wire.Server
	log   *Log
	logID uint64 // identity of this node's own log

	role        atomic.Int32
	degraded    atomic.Bool
	followers   atomic.Int32
	hadFollower atomic.Bool // a follower has attached to this primary

	// Primary-side ack state.
	amu     sync.Mutex
	ackSeq  uint64
	waiters []ackWaiter

	// Follower-side stream state.
	streamPos   atomic.Uint64 // frontier: end of the last applied group
	tipAtAttach atomic.Uint64
	attached    atomic.Bool
	caughtUp    atomic.Bool
	streamFatal atomic.Bool   // primary refused us, changed identity, or we diverged: stop dialing
	primLogID   atomic.Uint64 // identity of the log streamPos was minted on (0 = none yet)
	fconn       atomic.Pointer[net.Conn]

	// pending is the head of a group a frame split, waiting for the
	// frame that ends it; the rest is applyReady's scratch, reused
	// across frames. Owned by the follower goroutine — no lock.
	pending []Record
	groups  [][]Record
	runs    [][]*Record // per shard: the op records to apply, in LSN order
	ops     []engine.Op
	res     []engine.Result

	// Telemetry state (follower side): when the last stream frame
	// arrived (UnixNano) and the highest stream sequence received —
	// received-but-unapplied is the follower's replication lag.
	lastRecvNs atomic.Int64
	remoteSeq  atomic.Uint64

	// inst holds the instruments. Instrument may publish them after
	// the follower loop and the batch hook have started, so they are
	// read through one atomic pointer; Attach stores the empty set,
	// whose nil instruments are no-ops.
	inst atomic.Pointer[instruments]

	promote     chan struct{}
	promoteOnce sync.Once
	closed      chan struct{}
	closeOnce   sync.Once
	wg          sync.WaitGroup
}

// instruments are the node's histograms and counters.
type instruments struct {
	ackLatency    *obs.QuantileHistogram
	recordsInc    *obs.Counter
	acksInc       *obs.Counter
	reconnectsInc *obs.Counter
	heartbeatsInc *obs.Counter
}

// Attach builds the node, installs its hooks on srv, and (for a
// follower) starts the streaming loop.
func Attach(eng *engine.Engine, srv *wire.Server, cfg Config) *Node {
	cfg = cfg.withDefaults()
	n := &Node{
		cfg:     cfg,
		man:     ManifestOf(cfg.Engine),
		eng:     eng,
		srv:     srv,
		log:     NewLog(),
		logID:   newLogID(),
		runs:    make([][]*Record, eng.Shards()),
		promote: make(chan struct{}),
		closed:  make(chan struct{}),
	}
	n.inst.Store(&instruments{})
	srv.SetBatchHook(n.onBatch)
	srv.SetReplHandler(n.handleRepl)
	if cfg.PrimaryAddr != "" {
		n.role.Store(roleFollower)
		srv.SetServing(false)
		n.wg.Add(1)
		go n.runFollower()
	}
	return n
}

// Close stops the node's goroutines. It does not touch the engine or
// the server.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		close(n.closed)
		n.interruptStream()
		n.log.Wake()
	})
	n.wg.Wait()
}

// Promote opens the serving gate: a follower stops streaming, keeps
// every group it has applied (each with its dedup entry — group apply
// is all-or-nothing, and in synchronous mode the applied set covers
// every acknowledged op), and starts serving; on a primary it is a
// no-op. It returns once the node is serving.
func (n *Node) Promote() {
	n.promoteOnce.Do(func() {
		close(n.promote)
		n.interruptStream()
	})
	for !n.srv.Serving() {
		select {
		case <-n.closed:
			return
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// Role returns "primary" or "follower".
func (n *Node) Role() string {
	if n.role.Load() == rolePrimary {
		return "primary"
	}
	return "follower"
}

// Ready reports serving readiness: a primary is ready when serving; a
// follower is ready once attached to its primary and caught up to the
// log tip observed at attach.
func (n *Node) Ready() bool {
	if n.role.Load() == rolePrimary {
		return n.srv.Serving()
	}
	return n.attached.Load() && n.caughtUp.Load()
}

// Status is a node's replication and serving state.
type Status struct {
	// Serving reports whether TBatch traffic is accepted (followers
	// refuse it until promoted).
	Serving bool
	// Degraded reports that a synchronous-replication ack wait timed
	// out at least once, so some acknowledged ops may not have reached
	// the follower.
	Degraded bool
	// LogSeq is the replication log tip (records appended); AckSeq is
	// the attached follower's contiguous applied position (0 when no
	// follower is attached). On a follower, LogSeq is its own rebuilt
	// log tip and AckSeq its applied position in the primary's stream.
	LogSeq uint64
	AckSeq uint64
	// Followers is the number of attached replication followers.
	Followers uint32
}

// Status snapshots the node for /readyz and incident bundles.
func (n *Node) Status() Status {
	st := Status{
		Serving:   n.srv.Serving(),
		Degraded:  n.degraded.Load(),
		Followers: uint32(n.followers.Load()),
		LogSeq:    n.log.Seq(),
	}
	if n.role.Load() == rolePrimary {
		n.amu.Lock()
		st.AckSeq = n.ackSeq
		n.amu.Unlock()
	} else {
		st.AckSeq = n.streamPos.Load()
	}
	return st
}

// event emits one structured replication event.
func (n *Node) event(level slog.Level, msg string, attrs ...any) {
	if n.cfg.Logger != nil {
		n.cfg.Logger.Log(context.Background(), level, msg, attrs...)
	}
}

// transition records one replication state change into the flight
// recorder.
func (n *Node) transition(name string, a, b uint64) {
	n.cfg.Flight.RecordMsg(obs.FlightReplState, 0, name, a, b, 0)
}

// setDegraded latches the degraded flag, recording the edge (and
// firing the incident hook) only on the first transition.
func (n *Node) setDegraded(reason string) {
	if n.degraded.Swap(true) {
		return
	}
	n.transition("degraded", 0, 0)
	if n.cfg.OnIncident != nil {
		n.cfg.OnIncident("repl_degraded", reason)
	}
}

// Lag returns the node's replication lag in log sequences. A primary
// with no attached follower reports 0 (there is nothing to lag behind);
// with followers it is the log tip minus the highest follower ack. A
// follower reports the stream sequences it knows exist (received, or
// the tip observed at attach) but has not yet applied.
func (n *Node) Lag() uint64 {
	if n.role.Load() == rolePrimary {
		if n.followers.Load() == 0 {
			return 0
		}
		tip, ack := n.log.Seq(), n.AckSeq()
		if tip <= ack {
			return 0
		}
		return tip - ack
	}
	tip := n.remoteSeq.Load()
	if t := n.tipAtAttach.Load(); t > tip {
		tip = t
	}
	pos := n.streamPos.Load()
	if tip <= pos {
		return 0
	}
	return tip - pos
}

// HeartbeatAge returns how long ago the follower last heard from its
// primary (any stream frame counts); zero on a primary or before the
// first frame.
func (n *Node) HeartbeatAge() time.Duration {
	last := n.lastRecvNs.Load()
	if last == 0 || n.role.Load() == rolePrimary {
		return 0
	}
	return time.Duration(time.Now().UnixNano() - last)
}

// Instrument registers the node's replication telemetry in reg under
// prefix: role/serving/degraded/sync-mode state gauges, log and ack
// sequence gauges, the LSN lag gauge, heartbeat age, the sync-ack
// latency histogram, and apply/ack/reconnect counters. Nil registry
// disables everything.
func (n *Node) Instrument(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.Help(prefix+"_role", "replication role: 0 primary, 1 follower")
	reg.GaugeFunc(prefix+"_role", func() float64 { return float64(n.role.Load()) })
	reg.GaugeFunc(prefix+"_serving", func() float64 { return b2f(n.srv.Serving()) })
	reg.Help(prefix+"_degraded", "1 once a sync ack timed out or the follower detached with waiters blocked")
	reg.GaugeFunc(prefix+"_degraded", func() float64 { return b2f(n.degraded.Load()) })
	reg.GaugeFunc(prefix+"_sync_mode", func() float64 { return b2f(n.cfg.Sync) })
	reg.GaugeFunc(prefix+"_followers", func() float64 { return float64(n.followers.Load()) })
	reg.GaugeFunc(prefix+"_log_seq", func() float64 { return float64(n.log.Seq()) })
	reg.Help(prefix+"_ack_seq", "primary: highest follower-acked sequence; follower: applied frontier")
	reg.GaugeFunc(prefix+"_ack_seq", func() float64 {
		if n.role.Load() == rolePrimary {
			return float64(n.AckSeq())
		}
		return float64(n.streamPos.Load())
	})
	reg.Help(prefix+"_lag", "replication lag in log sequences (0 when nothing to catch up)")
	reg.GaugeFunc(prefix+"_lag", func() float64 { return float64(n.Lag()) })
	reg.Help(prefix+"_heartbeat_age_seconds", "follower: seconds since the last stream frame from the primary")
	reg.GaugeFunc(prefix+"_heartbeat_age_seconds", func() float64 { return n.HeartbeatAge().Seconds() })
	reg.Help(prefix+"_ack_latency_ns", "sync-mode response gating: how long a response waited for its follower ack")
	n.inst.Store(&instruments{
		ackLatency:    reg.QuantileHistogram(prefix + "_ack_latency_ns"),
		recordsInc:    reg.Counter(prefix + "_records_applied_total"),
		acksInc:       reg.Counter(prefix + "_acks_total"),
		reconnectsInc: reg.Counter(prefix + "_reconnects_total"),
		heartbeatsInc: reg.Counter(prefix + "_heartbeats_total"),
	})
}

// b2f renders a bool as a 0/1 gauge value.
func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------
// Primary side: batch tap, sync gating, follower streams.

// onBatch is the wire server's batch tap: encode one executed request
// into the log as an atomic group — its successful ops' records, then
// (for enrolled sessions) the dedup record — and, in synchronous mode,
// return the ack gate for the response.
func (n *Node) onBatch(session, reqID uint64, ops []engine.Op, results []engine.Result, resp []byte) func() bool {
	if n.role.Load() != rolePrimary {
		return nil
	}
	seq := n.log.AppendBatch(session, reqID, ops, results, resp)
	if seq == 0 || !n.cfg.Sync {
		return nil
	}
	if n.followers.Load() == 0 {
		// No follower to wait for. A live primary answers at once, and
		// so does one that never had a follower. One shutting down after
		// a follower attached answers nothing unacked — its stream may
		// have died first; see unacked.
		if n.hadFollower.Load() && n.srv.Closing() {
			return withhold
		}
		return nil
	}
	// The gate runs later, on the connection's writer; the ack round
	// trip it reports starts here, where the group entered the log.
	var logged time.Time
	if n.inst.Load().ackLatency != nil {
		logged = time.Now()
	}
	return func() bool { return n.waitAck(seq, logged) }
}

// withhold is the gate of a response that must not be sent.
func withhold() bool { return false }

// waitAck blocks until a follower acknowledges seq, the follower
// detaches, or SyncTimeout passes, and reports whether the response may
// be sent: always after an ack; without one, as unacked decides. logged,
// when nonzero, is when the group was appended; the ack-latency
// histogram gets the time since.
func (n *Node) waitAck(seq uint64, logged time.Time) bool {
	if !logged.IsZero() {
		defer func() { n.inst.Load().ackLatency.Observe(uint64(time.Since(logged))) }()
	}
	n.amu.Lock()
	if n.ackSeq >= seq {
		n.amu.Unlock()
		return true
	}
	if n.followers.Load() == 0 {
		n.amu.Unlock()
		return n.unacked("sync response released with no follower attached")
	}
	w := ackWaiter{seq: seq, ch: make(chan struct{})}
	n.waiters = append(n.waiters, w)
	n.amu.Unlock()
	t := time.NewTimer(n.cfg.SyncTimeout)
	defer t.Stop()
	select {
	case <-w.ch:
		if n.AckSeq() >= seq {
			return true
		}
		return n.unacked("follower detached with sync waiters blocked")
	case <-t.C:
		return n.unacked("sync ack timeout")
	}
}

// unacked decides a gated response whose ack will not come. A live
// primary releases it and marks itself Degraded: from here on an acked
// op may be missing on the follower (DESIGN.md §6a). A primary whose
// server is shutting down withholds it instead — its follower is about
// to be promoted, and the stream's end may only be the shutdown closing
// connections in some order — so the writer drops the response and
// closes the connection, and the client's retry is answered by the
// promoted follower: from its dedup cache if the group reached it,
// executed afresh if not.
func (n *Node) unacked(reason string) bool {
	if n.srv.Closing() {
		return false
	}
	n.setDegraded(reason)
	return true
}

// updateAck records a follower ack and releases waiters it covers.
func (n *Node) updateAck(seq uint64) {
	n.inst.Load().acksInc.Inc()
	n.amu.Lock()
	if seq > n.ackSeq {
		n.ackSeq = seq
	}
	kept := n.waiters[:0]
	for _, w := range n.waiters {
		if w.seq <= n.ackSeq {
			close(w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	n.waiters = kept
	n.amu.Unlock()
}

// releaseWaiters frees every sync waiter: the follower detached, so
// their acks will never come, and each decides through unacked.
func (n *Node) releaseWaiters() {
	n.amu.Lock()
	for _, w := range n.waiters {
		close(w.ch)
	}
	n.waiters = nil
	n.amu.Unlock()
}

// AckSeq returns the highest follower-acknowledged log sequence.
func (n *Node) AckSeq() uint64 {
	n.amu.Lock()
	defer n.amu.Unlock()
	return n.ackSeq
}

// LogSeq returns the log tip sequence.
func (n *Node) LogSeq() uint64 { return n.log.Seq() }

// handleRepl owns one follower stream: manifest check, then records
// out / acks in until either side dies.
func (n *Node) handleRepl(conn net.Conn, hello wire.Frame) {
	fail := func(msg string) {
		payload := append([]byte{byte(wire.StatusInvalid)}, msg...)
		conn.SetWriteDeadline(time.Now().Add(n.cfg.StreamTimeout))
		wire.WriteFrame(conn, wire.TError, hello.ID, payload)
	}
	m, resume, helloLogID, err := ParseReplHello(hello.Payload)
	if err != nil {
		fail(err.Error())
		return
	}
	if m != n.man {
		n.transition("refused", 0, 0)
		n.event(slog.LevelWarn, "replic: refusing follower",
			"reason", "manifest mismatch",
			"follower", fmt.Sprintf("%+v", m), "primary", fmt.Sprintf("%+v", n.man))
		fail(fmt.Sprintf("manifest mismatch: follower %+v, primary %+v", m, n.man))
		return
	}
	// A resume position numbers a prefix of one specific log. A promoted
	// follower rebuilds its log in apply order, so its numbering differs
	// from the dead primary's; honouring a foreign resume would stream
	// records whose sequences mean different things and corrupt the
	// follower's frontier and dedup bookkeeping.
	if resume > 0 && helloLogID != n.logID {
		n.transition("refused", resume, 0)
		n.event(slog.LevelWarn, "replic: refusing follower",
			"reason", "log identity mismatch",
			"resume", resume, "follower_log", fmt.Sprintf("%x", helloLogID),
			"primary_log", fmt.Sprintf("%x", n.logID))
		fail(fmt.Sprintf("resume %d minted against log %x, this log is %x", resume, helloLogID, n.logID))
		return
	}
	if tip := n.log.Seq(); resume > tip {
		fail(fmt.Sprintf("resume %d beyond log tip %d", resume, tip))
		return
	}
	conn.SetWriteDeadline(time.Now().Add(n.cfg.StreamTimeout))
	if err := wire.WriteFrame(conn, wire.TReplOK, hello.ID, AppendReplOK(nil, n.log.Seq(), n.logID)); err != nil {
		return
	}
	n.transition("follower_attached", resume, n.log.Seq())
	n.event(slog.LevelInfo, "replic: follower attached", "seq", resume)
	n.followers.Add(1)
	n.hadFollower.Store(true)
	defer func() {
		if n.followers.Add(-1) == 0 {
			n.releaseWaiters()
		}
		n.transition("follower_detached", 0, 0)
		n.event(slog.LevelInfo, "replic: follower detached")
	}()

	var stop atomic.Bool
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() { // ack reader: the follower's only frames are TReplAck
		defer rwg.Done()
		for {
			f, err := wire.ReadFrame(conn)
			if err != nil {
				stop.Store(true)
				n.log.Wake()
				return
			}
			if f.Type == wire.TReplAck {
				if seq, err := ParseSeq(f.Payload); err == nil {
					n.updateAck(seq)
				}
			}
		}
	}()
	rwg.Add(1)
	hbStop := make(chan struct{})
	go func() { // heartbeat ticker: wake the sender so idle streams stay live
		defer rwg.Done()
		t := time.NewTicker(heartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				n.log.Wake()
			case <-hbStop:
				return
			}
		}
	}()

	// The log holds the records' wire encoding, so a frame is a header
	// plus a run of log bytes: nothing is re-encoded. Both buffers are
	// reused; Write is done with them when it returns.
	cur := n.log.Cursor(resume)
	lastSent := time.Now()
	var payload, frame []byte
	for !stop.Load() {
		select {
		case <-n.closed:
			stop.Store(true)
		default:
		}
		if stop.Load() {
			break
		}
		first, cnt, recs := cur.Next(MaxRecordsPerFrame, frameBytes)
		// Woken with nothing new: heartbeat if it has been a while.
		if cnt == 0 && time.Since(lastSent) < heartbeatEvery {
			continue
		}
		payload = append(appendRecordsHeader(payload[:0], first, cnt), recs...)
		frame = wire.AppendFrame(frame[:0], wire.TReplRecords, 0, payload)
		conn.SetWriteDeadline(time.Now().Add(n.cfg.StreamTimeout))
		if _, err := conn.Write(frame); err != nil {
			break
		}
		lastSent = time.Now()
	}
	close(hbStop)
	conn.Close()
	rwg.Wait()
}

// ---------------------------------------------------------------------
// Follower side: dial, apply, ack, promote.

// interruptStream closes the follower's current stream connection so a
// blocked read returns.
func (n *Node) interruptStream() {
	if c := n.fconn.Load(); c != nil {
		(*c).Close()
	}
}

// runFollower keeps a stream to the primary until promotion or close,
// reconnecting with capped backoff.
func (n *Node) runFollower() {
	defer n.wg.Done()
	delay := n.cfg.DialRetry
	for {
		select {
		case <-n.promote:
			n.finishPromotion()
			return
		case <-n.closed:
			return
		default:
		}
		err := n.streamOnce()
		select {
		case <-n.promote:
			n.finishPromotion()
			return
		case <-n.closed:
			return
		default:
		}
		if n.streamFatal.Load() {
			// The primary refused us or is a different log than the one
			// our state was built from. Redialing cannot help; hold the
			// applied state and wait for an operator decision.
			n.transition("stream_fatal", n.streamPos.Load(), 0)
			n.event(slog.LevelError, "replic: stream unrecoverable", "err", err)
			if n.cfg.OnIncident != nil {
				n.cfg.OnIncident("repl_fatal", fmt.Sprint(err))
			}
			n.setDegraded("unrecoverable replication stream")
			select {
			case <-n.promote:
				n.finishPromotion()
			case <-n.closed:
			}
			return
		}
		if err != nil {
			n.event(slog.LevelWarn, "replic: stream ended", "err", err)
			n.inst.Load().reconnectsInc.Inc()
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-n.promote:
			case <-n.closed:
			}
			t.Stop()
			if delay *= 2; delay > time.Second {
				delay = time.Second
			}
		} else {
			delay = n.cfg.DialRetry
		}
	}
}

// finishPromotion turns the follower into the serving primary. The
// engine holds exactly the applied groups: each landed all-or-nothing
// with its dedup entry installed, so a client whose ack never arrived
// retries and is answered from the dedup cache — not re-executed.
// Groups received but not yet applied left zero engine trace, so their
// clients' retries re-execute freshly. Either way, no acknowledged op
// is lost and none is applied twice.
func (n *Node) finishPromotion() {
	n.role.Store(rolePrimary)
	n.attached.Store(false)
	// Recorded before the gate opens: Promote returns once the node
	// serves, and by then the promotion is in the log.
	n.transition("promoted", n.streamPos.Load(), n.log.Seq())
	n.event(slog.LevelInfo, "replic: promoted to primary",
		"stream_seq", n.streamPos.Load(), "log_seq", n.log.Seq())
	n.srv.SetServing(true)
	if n.cfg.OnPromote != nil {
		n.cfg.OnPromote()
	}
}

// streamOnce runs one attach-stream-apply session against the primary.
func (n *Node) streamOnce() error {
	d := net.Dialer{Timeout: n.cfg.StreamTimeout}
	conn, err := d.Dial("tcp", n.cfg.PrimaryAddr)
	if err != nil {
		return err
	}
	n.fconn.Store(&conn)
	defer func() {
		n.fconn.Store(nil)
		conn.Close()
		n.attached.Store(false)
	}()
	// A Promote or Close that ran during the dial found no connection
	// to interrupt; without this look the stream would outlive it.
	select {
	case <-n.promote:
		return nil
	case <-n.closed:
		return nil
	default:
	}

	resume := n.streamPos.Load()
	conn.SetDeadline(time.Now().Add(n.cfg.StreamTimeout))
	if err := wire.WriteFrame(conn, wire.TReplHello, 1, AppendReplHello(nil, n.man, resume, n.primLogID.Load())); err != nil {
		return err
	}
	f, err := wire.ReadFrame(conn)
	if err != nil {
		return err
	}
	switch f.Type {
	case wire.TReplOK:
	case wire.TError:
		// An explicit refusal is permanent: the primary compared our
		// manifest and log identity and said no. Redialing would loop.
		n.streamFatal.Store(true)
		return fmt.Errorf("replic: primary refused stream: %s", errString(f.Payload))
	default:
		return fmt.Errorf("replic: attach got frame type %d", f.Type)
	}
	tip, logID, err := ParseReplOK(f.Payload)
	if err != nil {
		return err
	}
	if want := n.primLogID.Load(); want != 0 && want != logID {
		// Same address, different log (a promoted or restarted node).
		// Our engine state was built from the old log; applying this one
		// on top would silently diverge.
		n.streamFatal.Store(true)
		return fmt.Errorf("replic: primary log identity changed %x -> %x", want, logID)
	}
	n.primLogID.Store(logID)
	conn.SetWriteDeadline(time.Time{})
	n.tipAtAttach.Store(tip)
	if resume >= tip && !n.caughtUp.Swap(true) {
		n.transition("caught_up", resume, tip)
	}
	n.attached.Store(true)
	n.transition("attached", resume, tip)
	n.event(slog.LevelInfo, "replic: attached to primary",
		"addr", n.cfg.PrimaryAddr, "seq", resume, "tip", tip)

	// A frame may end inside a group; its head waits in pending for
	// the frame that ends it, and a new attach starts clean.
	n.pending = nil
	recvSeq := resume
	var ack []byte
	for {
		conn.SetReadDeadline(time.Now().Add(n.cfg.StreamTimeout))
		f, err := wire.ReadFrame(conn)
		if err != nil {
			return err
		}
		n.lastRecvNs.Store(time.Now().UnixNano())
		if f.Type != wire.TReplRecords {
			return fmt.Errorf("replic: stream got frame type %d", f.Type)
		}
		first, recs, err := ParseReplRecords(f.Payload)
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			n.inst.Load().heartbeatsInc.Inc()
			continue // heartbeat
		}
		if first != recvSeq+1 {
			return fmt.Errorf("replic: stream gap: got seq %d, want %d", first, recvSeq+1)
		}
		recvSeq = first + uint64(len(recs)) - 1
		n.remoteSeq.Store(recvSeq)

		moved, err := n.applyReady(first, recs)
		if err != nil {
			return err
		}
		// Acknowledge the new frontier: an ack covers only groups whose
		// ops and dedup entries have fully landed.
		fr := n.streamPos.Load()
		if moved {
			ack = AppendSeq(ack[:0], fr)
			conn.SetWriteDeadline(time.Now().Add(n.cfg.StreamTimeout))
			if err := wire.WriteFrame(conn, wire.TReplAck, 0, ack); err != nil {
				return err
			}
		}
		if fr >= n.tipAtAttach.Load() && !n.caughtUp.Swap(true) {
			n.transition("caught_up", fr, n.tipAtAttach.Load())
		}
	}
}

// applyReady applies the groups a frame's records complete — first is
// the stream sequence of recs[0] — in stream order, and moves the
// frontier to the end of the last one, reporting whether it moved. A
// group the frame leaves open waits in pending.
//
// The log is the primary's execution order, so each shard's op records
// arrive with LSNs rising by one. The frame's op records are gathered
// per shard in stream order, and each shard's go to the engine in one
// ApplyReplica call: one acquisition of the execution lock per shard
// per frame. An op at or below the shard's applied LSN, ahead of the
// shard's first new op, is a replay of history the follower already
// holds (one restored from a checkpoint) and is skipped; its group
// still completes now. Any other LSN but the next one — a gap or an
// inversion — is divergence, found before anything of the frame is
// applied. Every result is checked against its record too — error,
// LSN, and for a pop the element — and any mismatch is divergence: the
// follower's state is no longer the primary's, re-streaming cannot
// repair it (the replay filter would skip the very op that went wrong),
// so the stream is latched fatal and nothing past it is acknowledged.
//
// Then each group lands whole, in stream order: its log append and
// dedup install follow its ops as one unit. Engine state, own log, and
// dedup cache therefore always agree at group granularity — the
// invariant promotion relies on.
func (n *Node) applyReady(first uint64, recs []Record) (bool, error) {
	// A group wholly inside the frame is a slice of the frame's own
	// records; only one that straddles frames is copied, into pending.
	groups, from := n.groups[:0], 0
	for i := range recs {
		if !recs[i].End {
			continue
		}
		g := recs[from : i+1]
		if len(n.pending) > 0 {
			g = append(n.pending, g...)
			n.pending = nil
		}
		groups = append(groups, g)
		from = i + 1
	}
	n.pending = append(n.pending, recs[from:]...)
	n.groups = groups
	if len(groups) == 0 {
		return false, nil
	}
	for sh := range n.runs {
		n.runs[sh] = n.runs[sh][:0]
	}
	for _, g := range groups {
		for i := range g {
			r := &g[i]
			if r.Kind != RecOp {
				continue
			}
			if int(r.Shard) >= len(n.runs) {
				return false, n.diverged("record names shard %d of %d", r.Shard, len(n.runs))
			}
			run := n.runs[r.Shard]
			next := n.eng.ShardLSN(int(r.Shard)) + uint64(len(run)) + 1
			switch {
			case r.LSN == next:
				n.runs[r.Shard] = append(run, r)
			case r.LSN < next && len(run) == 0: // replay
			default:
				return false, n.diverged("shard %d lsn %d out of log order, want %d", r.Shard, r.LSN, next)
			}
		}
	}
	applied := 0
	for sh, run := range n.runs {
		if len(run) == 0 {
			continue
		}
		ops := n.ops[:0]
		for _, r := range run {
			if r.Op == OpPush {
				ops = append(ops, engine.PushOp(core.Element{Value: r.Value, Meta: r.Meta}))
			} else {
				ops = append(ops, engine.PopOp())
			}
		}
		res := slices.Grow(n.res[:0], len(ops))[:len(ops)]
		n.ops, n.res = ops, res
		if err := n.eng.ApplyReplica(sh, ops, res); err != nil {
			return false, err
		}
		for k, rec := range run {
			switch r := res[k]; {
			case r.Err != nil:
				return false, n.diverged("apply shard %d lsn %d: %v", rec.Shard, rec.LSN, r.Err)
			case r.LSN != rec.LSN:
				return false, n.diverged("shard %d applied lsn %d, primary says %d", rec.Shard, r.LSN, rec.LSN)
			case rec.Op == OpPop && (r.Elem.Value != rec.Value || r.Elem.Meta != rec.Meta):
				return false, n.diverged("shard %d lsn %d popped (%d,%d), primary popped (%d,%d)",
					rec.Shard, rec.LSN, r.Elem.Value, r.Elem.Meta, rec.Value, rec.Meta)
			}
		}
		applied += len(run)
	}
	n.inst.Load().recordsInc.Add(uint64(applied))
	for _, g := range groups {
		n.log.AppendGroup(g)
		for _, r := range g {
			if r.Kind == RecDedup {
				n.srv.InstallDedup(r.Session, r.ReqID, r.Resp)
			}
		}
	}
	n.streamPos.Store(first + uint64(from) - 1)
	return true, nil
}

// diverged latches the stream fatal and returns the error that ends it:
// the follower's engine no longer mirrors the primary's history.
// runFollower sees the latch, marks the node Degraded (firing the
// incident hook) and stops dialing.
func (n *Node) diverged(format string, args ...any) error {
	n.streamFatal.Store(true)
	return fmt.Errorf("replic: divergence: "+format, args...)
}

// errString decodes a TError payload's message.
func errString(p []byte) string {
	if len(p) <= 1 {
		return "unknown error"
	}
	return string(p[1:])
}
