// Package node assembles one serving node — engine, wire server,
// replication, cluster membership, persistence scrub/repair and the
// observability stack — in exactly one place. cmd/bmwd is flags →
// Start, and the acceptance harnesses (bmwchaos, bmwcluster, bmwload
// -inproc) start the same assembly in-process. DESIGN.md §6 "Node
// assembly" states the construction and shutdown order and why.
package node

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/replic"
	"repro/internal/wire"
)

// What no caller varies; Config carries only what two of them set
// differently.
const (
	flightEvents     = 8192 // flight-recorder ring
	connIdleTimeout  = 5 * time.Minute
	connWriteTimeout = 30 * time.Second
	connMaxInflight  = 1024 // queued responses per connection before StatusOverloaded
	readyPoll        = 250 * time.Millisecond
	killGrace        = 50 * time.Millisecond
	triggerBacklog   = 16 // queued incident triggers; rate limiting collapses a burst anyway
)

// Config is everything a caller decides about a node.
type Config struct {
	// Engine is the shard geometry, routing and admission control.
	// RestoreDir is overwritten with PersistDir.
	Engine engine.Config
	// Listener is the bound wire-protocol listener, the node's from Start
	// on; nil listens on a loopback port of the kernel's choosing.
	Listener net.Listener
	// HTTPAddr serves /metrics, /healthz, /readyz, /slo.json,
	// /flight.json, /trace.json and pprof; empty = off.
	HTTPAddr string
	// TraceSample exports 1 of every N request spans to the Chrome
	// trace; 0 keeps tracing aggregate-only.
	TraceSample int
	// Log receives the node's structured events (repeat suppression and
	// the flight-recorder mirror are layered on top); nil discards.
	Log slog.Handler

	// PersistDir is restored from at Start, checkpointed into by Close
	// and served to peers' anti-entropy fetches. Empty = volatile.
	PersistDir string
	// ScrubInterval is the integrity-scrub period over PersistDir (0 =
	// off), ScrubRate its io throttle in bytes/second (0 = none),
	// RepairFrom the peer to repair from on a finding (empty = detect only).
	ScrubInterval time.Duration
	ScrubRate     int64
	RepairFrom    string

	// ClusterMap joins the node to a cluster as ClusterNode; gossip
	// sweeps every GossipInterval (0 = the gossiper's 2s default).
	ClusterMap     *cluster.Map
	ClusterNode    uint32
	GossipInterval time.Duration

	// Follow starts the node as a hot standby of that primary. ReplSync
	// holds dedup-enrolled responses for the follower's ack, at most
	// SyncTimeout; DialRetry is the follower's reconnect floor (0 = 2s, 50ms).
	Follow      string
	ReplSync    bool
	SyncTimeout time.Duration
	DialRetry   time.Duration

	// IncidentDir receives incident bundles (empty = off), non-forced
	// triggers at most one per IncidentMinInterval (0 = 30s); the oldest
	// are pruned beyond IncidentKeep (0 = 16).
	IncidentDir         string
	IncidentMinInterval time.Duration
	IncidentKeep        int
	// SLO is a comma-separated objective list, e.g.
	// "p99<10ms,availability>0.999,lag<5000"; empty = off.
	SLO string
}

// trigger is one queued incident capture.
type trigger struct{ name, reason string }

// Node is a running serving node.
type Node struct {
	cfg    Config
	logger *slog.Logger
	eng    *engine.Engine
	srv    *wire.Server
	repl   *replic.Node
	state  *cluster.State    // nil outside a cluster
	gossip *cluster.Gossiper // nil outside a cluster

	reg      *obs.Registry
	flight   *obs.FlightRecorder
	slo      *obs.SLOEngine        // nil without Config.SLO
	inc      *obs.IncidentCapturer // nil without Config.IncidentDir
	triggers chan trigger
	dropped  *obs.Counter // triggers that found the queue full
	httpLn   net.Listener // nil without Config.HTTPAddr
	httpSrv  *http.Server

	// persistBad latches while the scrubber holds the durable state
	// corrupt; it or a poisoned WAL takes the node unready.
	persistBad atomic.Bool

	stopRuntime func()
	serveErr    chan error
	done        chan struct{}
	stopOnce    sync.Once
	wg          sync.WaitGroup
}

// Start assembles the node and begins serving on cfg.Listener. Order
// matters: everything a replication or engine goroutine can call back
// into exists before replic.Attach starts the follower loop, and
// nothing that can fail comes after it.
func Start(cfg Config) (*Node, error) {
	cfg.Engine.RestoreDir = cfg.PersistDir
	if cfg.Listener == nil {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		cfg.Listener = ln
	}
	if cfg.Log == nil {
		cfg.Log = slog.NewTextHandler(io.Discard, nil)
	}
	n := &Node{
		cfg:      cfg,
		reg:      obs.NewRegistry(),
		flight:   obs.NewFlightRecorder(flightEvents),
		triggers: make(chan trigger, triggerBacklog),
		serveErr: make(chan error, 1),
		done:     make(chan struct{}),
	}
	// Error lines also land in the flight ring, next to the edges and
	// spans they correlate with.
	n.logger = slog.New(obs.NewDedupHandler(
		obs.WithFlightRecorder(cfg.Log, n.flight), 5*time.Second, slog.LevelError))

	fail := func(err error) (*Node, error) {
		cfg.Listener.Close()
		if n.httpLn != nil {
			n.httpLn.Close()
		}
		if n.eng != nil {
			n.eng.Close()
		}
		return nil, err
	}
	eng, err := engine.New(cfg.Engine)
	if err != nil {
		return fail(fmt.Errorf("engine: %w", err))
	}
	n.eng = eng
	eng.Instrument(n.reg, "bmwd_engine")
	n.flight.Instrument(n.reg, "bmwd_flight")

	// Stage quantiles always aggregate; the sampled Chrome-trace export
	// (and its memory) needs TraceSample.
	var rec *obs.TraceRecorder
	if cfg.TraceSample > 0 {
		rec = obs.NewTraceRecorder()
	}
	tracer := obs.NewTracer(obs.TracerOptions{
		Registry:    n.reg,
		Prefix:      "bmwd_trace",
		Recorder:    rec,
		SampleEvery: cfg.TraceSample,
		Flight:      n.flight,
	})

	// The SLO engine pages through n.trigger, a queue, so it needs no
	// capturer to exist yet and the capturer can be handed the engine.
	if cfg.SLO != "" {
		if n.slo, err = n.newSLO(); err != nil {
			return fail(err)
		}
	}
	n.inc, err = obs.NewIncidentCapturer(obs.IncidentOptions{
		Dir:         cfg.IncidentDir,
		MinInterval: cfg.IncidentMinInterval,
		MaxBundles:  cfg.IncidentKeep,
		Flight:      n.flight,
		Registry:    n.reg,
		Trace:       rec,
		SLO:         n.slo,
		Detail:      n.Detail,
		Logger:      n.logger,
	})
	if err != nil {
		return fail(err)
	}
	n.inc.Instrument(n.reg, "bmwd_incident")
	n.reg.Help("bmwd_incident_dropped_total", "incident triggers dropped because the capture queue was full")
	n.dropped = n.reg.Counter("bmwd_incident_dropped_total")

	hooks := engine.Hooks{
		Flight: n.flight,
		OnPanic: func(shard int, r any) {
			// Synchronous: the executing goroutine is about to re-panic
			// and kill the process — this bundle is the last chance.
			_, _ = n.inc.Capture("panic", fmt.Sprintf("shard %d: %v", shard, r))
		},
	}
	n.srv = wire.NewServerConfig(eng, wire.ServerConfig{
		IdleTimeout:  connIdleTimeout,
		WriteTimeout: connWriteTimeout,
		MaxInflight:  connMaxInflight,
		Tracer:       tracer,
	})
	if cfg.PersistDir != "" {
		// The checkpoint's WALs publish here; readiness reads their
		// poisoned gauges through Engine.WALPoisoned.
		hooks.Metrics, hooks.MetricsPrefix = n.reg, "bmwd_persist"
		// A rotted peer pointed here with RepairFrom heals itself from
		// this node's sealed checkpoint.
		n.srv.SetFetchHandler((&replic.FetchServer{Dir: cfg.PersistDir}).Handle)
	}
	eng.SetHooks(hooks)
	if cfg.ClusterMap != nil {
		if err := n.joinCluster(); err != nil {
			return fail(err)
		}
	}
	if cfg.HTTPAddr != "" {
		if n.httpLn, err = net.Listen("tcp", cfg.HTTPAddr); err != nil {
			return fail(fmt.Errorf("obs listen: %w", err))
		}
		n.httpSrv = obs.NewServerOpts(cfg.HTTPAddr, n.reg, obs.HandlerOptions{
			Ready:  n.Ready,
			Detail: n.Detail,
			Trace:  rec,
			SLO:    n.slo,
			Flight: n.flight,
		})
	}

	// From here on goroutines run. A follower's loop starts inside
	// Attach and can raise repl_fatal before Attach returns; the trigger
	// waits in n.triggers until captureLoop starts, after n.repl is set.
	n.repl = replic.Attach(eng, n.srv, replic.Config{
		Engine:      cfg.Engine,
		PrimaryAddr: cfg.Follow,
		Sync:        cfg.ReplSync,
		SyncTimeout: cfg.SyncTimeout,
		DialRetry:   cfg.DialRetry,
		Logger:      n.logger,
		Flight:      n.flight,
		OnIncident:  n.trigger,
		OnPromote:   n.onPromote,
	})
	n.repl.Instrument(n.reg, "bmwd_repl")

	runtimeC := obs.NewRuntimeCollector(n.reg, "bmwd_runtime")
	runtimeC.SetFlight(n.flight, 10*time.Millisecond) // a stall worth a flight event
	n.stopRuntime = runtimeC.Start(5 * time.Second)
	n.slo.Start(time.Second)
	n.spawn(n.captureLoop)
	n.spawn(n.watchReady)
	if cfg.PersistDir != "" && cfg.ScrubInterval > 0 {
		n.spawn(n.scrubLoop)
	}
	if n.gossip != nil {
		go n.gossip.Run() // Stop waits for it
	}
	if n.httpSrv != nil {
		n.spawn(func() {
			if err := n.httpSrv.Serve(n.httpLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				n.logger.Error("obs server failed", "err", err)
			}
		})
	}
	n.spawn(func() { n.serveErr <- n.srv.Serve(cfg.Listener) })
	n.logger.Info("serving", "role", n.repl.Role(), "primary", cfg.Follow,
		"shards", eng.Shards(), "addr", n.Addr(), "trace_sample", cfg.TraceSample)
	return n, nil
}

func (n *Node) spawn(f func()) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		f()
	}()
}

// newSLO parses Config.SLO against this node's metric names. A page
// transition queues an incident.
func (n *Node) newSLO() (*obs.SLOEngine, error) {
	names := obs.SLONames{
		LagGauge:      "bmwd_repl_lag",
		LatencyMetric: obs.StageMetricName("bmwd_trace", obs.StageIssue),
	}
	for i := 0; i < n.eng.Shards(); i++ {
		p := fmt.Sprintf("bmwd_engine_shard%d", i)
		names.BadCounters = append(names.BadCounters, p+"_backpressure_total")
		names.TotalCounters = append(names.TotalCounters,
			p+"_pushes_total", p+"_pops_total", p+"_backpressure_total")
	}
	objectives, err := obs.ParseSLOSpec(n.cfg.SLO, names)
	if err != nil {
		return nil, err
	}
	return obs.NewSLOEngine(obs.SLOOptions{
		Source:     n.reg,
		Registry:   n.reg,
		Prefix:     "bmwd_slo",
		Objectives: objectives,
		Flight:     n.flight,
		OnChange: func(o obs.Objective, from, to obs.SLOState, value float64) {
			n.logger.Warn("SLO state change", "objective", o.Name,
				"from", from.String(), "to", to.String(), "value", value)
			if to == obs.SLOPage {
				n.trigger("slo_page", fmt.Sprintf("%s=%.0f bound %.0f", o.Name, value, o.Bound))
			}
		},
	}), nil
}

// joinCluster makes the node a cluster member: it enforces push
// ownership under the live map, serves the map, and gossips changes.
func (n *Node) joinCluster() error {
	st, err := cluster.NewState(n.cfg.ClusterMap, n.cfg.ClusterNode)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	n.state = st
	reg := n.reg
	notOwner := reg.Counter("bmwd_cluster_not_owner_total")
	reg.Help("bmwd_cluster_not_owner_total", "pushes refused with StatusNotOwner under the live cluster map")
	n.srv.SetOwnerGate(func(op wire.Op) (bool, uint64) {
		owned, ver := st.Owns(op.Value, op.Meta)
		if !owned {
			notOwner.Add(1)
		}
		return owned, ver
	})
	n.srv.SetClusterHandlers(st.EncodedIfNewer, st.OfferEncoded)
	reg.GaugeFunc("bmwd_cluster_node_id", func() float64 { return float64(st.Self()) })
	reg.GaugeFunc("bmwd_cluster_map_version", func() float64 { return float64(st.Version()) })
	reg.GaugeFunc("bmwd_cluster_adopts", func() float64 { return float64(st.Adopts()) })
	reg.GaugeFunc("bmwd_cluster_epoch", func() float64 {
		if self := st.Current().ByID(st.Self()); self != nil {
			return float64(self.Epoch)
		}
		return 0
	})
	reg.GaugeFunc("bmwd_cluster_band_start", func() float64 {
		s, _, _ := st.Current().Band(st.Self())
		return float64(s)
	})
	reg.GaugeFunc("bmwd_cluster_band_end", func() float64 {
		_, e, _ := st.Current().Band(st.Self())
		return float64(e)
	})
	n.gossip = cluster.NewGossiper(cluster.GossiperConfig{
		State:     st,
		SelfAddrs: []string{n.Addr()},
		Interval:  n.cfg.GossipInterval,
		Logf: func(format string, args ...any) {
			n.logger.Info(fmt.Sprintf(format, args...))
		},
	})
	return nil
}

// onPromote runs once a standby has become the serving primary: a
// cluster member mints the successor map (version+1, own epoch+1) and
// kicks gossip so routing follows the failover.
func (n *Node) onPromote() {
	if n.state == nil {
		return
	}
	m := n.state.PromoteSelf()
	n.logger.Info("cluster: promotion minted map", "version", m.Version, "node", n.state.Self())
	n.gossip.Kick()
}

// trigger queues a rate-limited incident capture without blocking the
// caller — a shard executor, the SLO tick, a replication goroutine.
// One goroutine drains the queue, so bundles land in trigger order; a
// trigger that finds the queue full is counted and dropped.
func (n *Node) trigger(name, reason string) {
	select {
	case n.triggers <- trigger{name, reason}:
	default:
		n.dropped.Inc()
	}
}

// captureLoop writes the queued bundles until stop queues the empty
// trigger behind them: what was raised before a stop still gets its
// bundle.
func (n *Node) captureLoop() {
	for t := range n.triggers {
		if t.name == "" {
			return
		}
		_, _ = n.inc.Capture(t.name, t.reason) // nil-safe; logs its own failures
	}
}

// watchReady records every readiness edge in the flight ring and
// queues a bundle when a node that was ready stops being so.
func (n *Node) watchReady() {
	t := time.NewTicker(readyPoll)
	defer t.Stop()
	last := n.Ready()
	for {
		select {
		case <-n.done:
			return
		case <-t.C:
		}
		now := n.Ready()
		if now == last {
			continue
		}
		last = now
		b := uint64(0)
		if now {
			b = 1
		}
		n.flight.Record(obs.FlightReady, 0, b, 0, 0)
		if !now {
			n.trigger("readyz_flip", "node stopped reporting ready")
		}
	}
}

// Addr is the wire-protocol address the node serves on.
func (n *Node) Addr() string { return n.cfg.Listener.Addr().String() }

// HTTPAddr is the bound observability address, "" when off.
func (n *Node) HTTPAddr() string {
	if n.httpLn == nil {
		return ""
	}
	return n.httpLn.Addr().String()
}

// Engine, Repl, Cluster (nil outside a cluster) and Registry are the
// assembled parts, for the harnesses that drive and inspect them.
func (n *Node) Engine() *engine.Engine  { return n.eng }
func (n *Node) Repl() *replic.Node      { return n.repl }
func (n *Node) Cluster() *cluster.State { return n.state }
func (n *Node) Registry() *obs.Registry { return n.reg }

// ServeErr delivers the accept loop's exit: net.ErrClosed after Close
// or Kill, anything else means the node stopped serving on its own.
func (n *Node) ServeErr() <-chan error { return n.serveErr }

// Promote turns a standby into the serving primary (no-op on one).
func (n *Node) Promote() { n.repl.Promote() }

// Ready is the /readyz verdict: serving (a follower: attached and
// caught up) on durable state that can be trusted.
func (n *Node) Ready() bool { return n.repl.Ready() && n.persistOK() }

func (n *Node) persistOK() bool { return !n.persistBad.Load() && !n.eng.WALPoisoned() }

// Capture writes an incident bundle now ("sigquit" also bypasses the
// rate limit); ("", nil) means capture is off or was rate-limited.
func (n *Node) Capture(name, reason string) (string, error) {
	return n.inc.Capture(name, reason)
}

// Detail is the /readyz body and a bundle's status.json: why the node
// is or is not ready.
func (n *Node) Detail() map[string]any {
	st := n.repl.Status()
	d := map[string]any{
		"role":       n.repl.Role(),
		"serving":    st.Serving,
		"degraded":   st.Degraded,
		"caught_up":  n.repl.Ready(),
		"repl_lag":   n.repl.Lag(),
		"persist_ok": n.persistOK(),
	}
	if n.state != nil {
		s, e, _ := n.state.Current().Band(n.state.Self())
		d["cluster_node"] = n.state.Self()
		d["cluster_map_version"] = n.state.Version()
		d["cluster_band"] = []uint64{s, e}
	}
	return d
}

// Close shuts the node down gracefully: stop the background loops,
// drain connections until ctx expires (then cut them), stop
// replication, close the engine and — when persisting — checkpoint
// every shard. Only a failed checkpoint is an error.
func (n *Node) Close(ctx context.Context) error {
	defer n.inc.PanicCapture()
	var err error
	n.stopOnce.Do(func() { err = n.stop(ctx, n.cfg.PersistDir != "") })
	return err
}

// Kill is the crash the failover harnesses inject: the same teardown
// with a 50ms drain and no checkpoint — none of its state survives.
func (n *Node) Kill() {
	ctx, cancel := context.WithTimeout(context.Background(), killGrace)
	defer cancel()
	n.stopOnce.Do(func() { _ = n.stop(ctx, false) })
}

func (n *Node) stop(ctx context.Context, checkpoint bool) error {
	close(n.done)
	n.triggers <- trigger{} // ends captureLoop once it has written what is queued
	if n.gossip != nil {
		n.gossip.Stop()
	}
	n.slo.Stop()
	n.stopRuntime()
	if err := n.srv.Shutdown(ctx); err != nil {
		n.logger.Error("shutdown", "err", err)
	}
	n.repl.Close()
	if n.httpSrv != nil && n.httpSrv.Shutdown(ctx) != nil {
		n.httpSrv.Close() // out of time: cut the scrapers off
	}
	n.wg.Wait()
	n.eng.Close()
	if !checkpoint {
		return nil
	}
	if err := n.eng.Checkpoint(n.cfg.PersistDir); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	n.logger.Info("checkpointed", "elements", n.eng.Len(), "dir", n.cfg.PersistDir)
	return nil
}
