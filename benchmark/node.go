package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/replic"
	"repro/internal/wire"
)

// nodeOpts selects how much of cmd/bmwd's serving path one in-process
// node carries; each ladder rung turns on one more field.
type nodeOpts struct {
	geom engine.Config
	// replic calls replic.Attach, as bmwd always does.
	replic bool
	// obs adds what bmwd's default -flight 8192 implies: the flight
	// recorder, the request tracer, engine/replic/flight instruments on
	// one registry, engine hooks, and the runtime collector.
	obs bool
	// sync is bmwd -repl-sync; follow is bmwd -follow.
	sync   bool
	follow string
	// cmap and self are bmwd -cluster-map and -cluster-node.
	cmap *cluster.Map
	self uint32
	// ln, when set, is an already-bound listener (a cluster map needs
	// the addresses before the nodes exist).
	ln net.Listener
}

// node is one in-process bmwd: engine, wire server, and whichever of
// replication, observability and cluster membership its opts asked for.
type node struct {
	eng  *engine.Engine
	srv  *wire.Server
	repl *replic.Node
	reg  *obs.Registry
	gsp  *cluster.Gossiper
	addr string

	stopRuntime func()
}

const tracePrefix = "bmwd_trace"

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// startNode assembles a node the way cmd/bmwd/main.go does on its
// serving path and starts serving on loopback.
func startNode(o nodeOpts) (*node, error) {
	eng, err := engine.New(o.geom)
	if err != nil {
		return nil, err
	}
	n := &node{eng: eng}

	var (
		flight *obs.FlightRecorder
		tracer *obs.Tracer
		logger *slog.Logger
	)
	if o.obs {
		flight = obs.NewFlightRecorder(8192)
		logger = obs.NewEventLoggerFlight(io.Discard, slog.LevelInfo, 5*time.Second, flight)
		n.reg = obs.NewRegistry()
		eng.Instrument(n.reg, "bmwd_engine")
		flight.Instrument(n.reg, "bmwd_flight")
		tracer = obs.NewTracer(obs.TracerOptions{Registry: n.reg, Prefix: tracePrefix, Flight: flight})
		eng.SetHooks(engine.Hooks{Flight: flight, Metrics: n.reg, MetricsPrefix: "bmwd_persist"})
		rc := obs.NewRuntimeCollector(n.reg, "bmwd_runtime")
		rc.SetFlight(flight, 10*time.Millisecond)
		n.stopRuntime = rc.Start(5 * time.Second)
	}

	n.srv = wire.NewServerConfig(eng, wire.ServerConfig{Tracer: tracer,
		IdleTimeout: 5 * time.Minute, WriteTimeout: 30 * time.Second, MaxInflight: 1024})

	var st *cluster.State
	if o.cmap != nil {
		if st, err = cluster.NewState(o.cmap, o.self); err != nil {
			n.stop()
			return nil, err
		}
	}
	if o.replic {
		n.repl = replic.Attach(eng, n.srv, replic.Config{
			Engine:      o.geom,
			PrimaryAddr: o.follow,
			Sync:        o.sync,
			SyncTimeout: 2 * time.Second,
			Logger:      logger,
			Flight:      flight,
			OnPromote: func() {
				if st != nil {
					st.PromoteSelf()
				}
			},
		})
		n.repl.Instrument(n.reg, "bmwd_repl")
	}

	ln := o.ln
	if ln == nil {
		if ln, err = listen(); err != nil {
			n.stop()
			return nil, err
		}
	}
	n.addr = ln.Addr().String()
	if st != nil {
		n.srv.SetOwnerGate(func(op wire.Op) (bool, uint64) { return st.Owns(op.Value, op.Meta) })
		n.srv.SetClusterHandlers(st.EncodedIfNewer, st.OfferEncoded)
		n.gsp = cluster.NewGossiper(cluster.GossiperConfig{
			State: st, SelfAddrs: []string{n.addr}, Interval: 2 * time.Second,
		})
		go n.gsp.Run()
	}
	go func() { _ = n.srv.Serve(ln) }() // returns net.ErrClosed once stop shuts the server down
	return n, nil
}

// stop shuts the node down in bmwd's order: stop accepting and drain
// connections, stop replication, close the engine. The engine's queues
// stay readable through drain afterwards.
func (n *node) stop() {
	if n.gsp != nil {
		n.gsp.Stop()
	}
	if n.stopRuntime != nil {
		n.stopRuntime()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = n.srv.Shutdown(ctx) // a timeout force-closes the connections, which is all that is wanted here
	cancel()
	if n.repl != nil {
		n.repl.Close()
	}
	n.eng.Close()
}

// drainEngine empties a closed engine shard by shard, in pop order, and
// checks each shard came out in rank order.
func drainEngine(eng *engine.Engine) ([][]core.Element, error) {
	out := make([][]core.Element, eng.Shards())
	for i := range out {
		els, err := eng.ShardDrain(i)
		if err != nil {
			return nil, err
		}
		if err := sortedDrain(els); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		out[i] = els
	}
	return out, nil
}

func flatten(shards [][]core.Element) []core.Element {
	var all []core.Element
	for _, s := range shards {
		all = append(all, s...)
	}
	return all
}

// dial opens one client connection the way cmd/bmwload does: a
// session-enrolled ResilientClient with 5 s attempt deadlines.
func dial(addr string) (*wire.ResilientClient, error) {
	rc, err := wire.NewResilientClient(wire.ResilientOptions{
		Addrs:          []string{addr},
		RequestTimeout: 5 * time.Second,
		MaxAttempts:    8,
		Conn:           wire.ClientOptions{ReadTimeout: 5 * time.Second, WriteTimeout: 5 * time.Second},
	})
	if err != nil {
		return nil, err
	}
	// Connect now, so dial time lands in set-up and not in the first batch.
	if _, err := rc.Do([]wire.Op{{Kind: wire.OpPeek}}); err != nil {
		rc.Close()
		return nil, fmt.Errorf("probe %s: %w", addr, err)
	}
	return rc, nil
}

// waitFollower blocks until the primary sees its follower attached and
// the follower has caught up.
func waitFollower(primary, follower *node) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if primary.repl.Status().Followers == 1 && follower.repl.Ready() {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("follower did not attach and catch up within 10s")
}

// waitAcked blocks until the follower has acknowledged the primary's
// whole log, so both engines hold the same history.
func waitAcked(primary *node) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := primary.repl.Status(); st.AckSeq >= st.LogSeq {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	st := primary.repl.Status()
	return fmt.Errorf("follower acked %d of %d log records within 10s", st.AckSeq, st.LogSeq)
}
