// bmwd serves a sharded BMW-Tree scheduling engine over the wire
// protocol: a fleet of shards, each one queue (core golden model, pifo
// shift register, or a cycle-accurate rbmw/rpubmw simulator) behind an
// execution lock, fronted by a length-prefixed binary protocol
// on TCP.
//
// Replication: with -follow the daemon starts as a hot standby — it
// refuses queue traffic (clients get StatusNotPrimary and fail over),
// streams the primary's replication log, and applies it to its own
// engine. SIGUSR1 (or a wire TAdmin promote frame) promotes it: it
// stops streaming at its contiguously-applied frontier and starts
// serving. A primary run with -repl-sync holds each dedup-enrolled
// response until the follower acknowledges the batch, which is what
// makes a kill lose zero acknowledged ops.
//
// Lifecycle: on SIGINT/SIGTERM the daemon stops accepting, drains
// in-flight connections, closes the engine, and — when -persist is set
// — checkpoints every shard through the persist subsystem so the next
// start with the same -persist dir restores the full queue contents.
//
// Examples:
//
//	bmwd -listen :9970 -shards 4 -queue core -route rank
//	bmwd -listen :9970 -shards 4 -queue rbmw -m 4 -l 6 -http :9971
//	bmwd -listen :9970 -persist /var/lib/bmwd   # checkpoint on shutdown
//	bmwd -listen :9970 -repl-sync               # primary, sync replication
//	bmwd -listen :9980 -follow 127.0.0.1:9970   # hot standby of :9970
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/replic"
	"repro/internal/wire"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bmwd: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:9970", "wire protocol listen address")
		shards     = flag.Int("shards", 4, "number of engine shards (each owns one queue)")
		queue      = flag.String("queue", "core", "queue kind per shard: core, pifo, rbmw, rpubmw")
		order      = flag.Int("m", 2, "tree order m (rbmw/rpubmw/core)")
		levels     = flag.Int("l", 11, "tree levels (rbmw/rpubmw/core)")
		capacity   = flag.Int("cap", 0, "per-shard capacity override (0 = derive from m,l)")
		ringSize   = flag.Int("ring", 1024, "per-shard request ring size")
		batch      = flag.Int("batch", 64, "per-shard max drain batch")
		route      = flag.String("route", "hash", "push routing: hash (by Meta) or rank (by Value range)")
		rankBits   = flag.Int("rankbits", 30, "rank width in bits for -route rank partitioning")
		httpAddr   = flag.String("http", "", "observability HTTP address (/metrics, /healthz, /readyz, /trace.json, pprof); empty = off")
		sample     = flag.Int("trace-sample", 0, "export 1 of every N request spans to the Chrome trace at /trace.json (0 = aggregate-only tracing)")
		logLevel   = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
		persistDir = flag.String("persist", "", "checkpoint directory: restore on start, checkpoint on shutdown")
		drainFor   = flag.Duration("drain", 10*time.Second, "graceful shutdown budget before connections are cut")

		scrubEvery = flag.Duration("scrub-interval", time.Minute, "background integrity-scrub pass interval over the -persist checkpoint (0 = off)")
		scrubRate  = flag.Int64("scrub-rate", 8<<20, "scrub io throttle in bytes/second (0 = unthrottled)")
		repairFrom = flag.String("repair-from", "", "peer wire address to anti-entropy repair the -persist checkpoint from when the scrubber finds rot (empty = detect only)")

		clusterMap  = flag.String("cluster-map", "", "cluster map JSON file; joins this node to a multi-node cluster")
		clusterNode = flag.Uint("cluster-node", 0, "this node's id in the -cluster-map")
		gossipEvery = flag.Duration("gossip-every", 2*time.Second, "cluster map gossip sweep interval")

		follow   = flag.String("follow", "", "start as a hot standby streaming from this primary address")
		replSync = flag.Bool("repl-sync", false, "primary: hold dedup-enrolled responses until the follower acks (zero acked-op loss)")
		syncWait = flag.Duration("repl-sync-timeout", 2*time.Second, "sync-replication ack budget before degrading")

		idleTO    = flag.Duration("conn-idle-timeout", 5*time.Minute, "reap client connections idle this long (0 = never)")
		writeTO   = flag.Duration("conn-write-timeout", 30*time.Second, "per-response write budget (0 = none)")
		inflight  = flag.Int("conn-max-inflight", 1024, "per-connection queued-response cap before shedding with StatusOverloaded (0 = off)")
		ovHigh    = flag.Float64("overload-high", 0.85, "ring-occupancy fraction that trips shard overload shedding (0 = off)")
		ovLow     = flag.Float64("overload-low", 0, "occupancy fraction that clears overload (0 = half of -overload-high)")
		ovLatency = flag.Duration("overload-drain-latency", 20*time.Millisecond, "drain-batch latency that trips shard overload (0 = occupancy only)")
		ovCooloff = flag.Duration("overload-cooloff", 0, "how long a tripped shard sheds without a drain before the latch expires (0 = default 250ms)")

		flightSize  = flag.Int("flight", 8192, "flight-recorder ring size in events (0 = off)")
		incidentDir = flag.String("incident-dir", "", "write incident bundles here on panic/SIGQUIT/overload/repl-degrade/SLO-page (empty = off)")
		incidentCap = flag.Int("incident-keep", 16, "retained incident bundles before the oldest is pruned")
		incidentGap = flag.Duration("incident-min-interval", 30*time.Second, "rate limit between non-forced incident captures")
		sloSpec     = flag.String("slo", "", "comma-separated SLOs, e.g. p99<10ms,availability>0.999,lag<5000 (empty = off)")
		sloShort    = flag.Duration("slo-short-window", 10*time.Second, "SLO burn-rate short window (violating raises warn)")
		sloLong     = flag.Duration("slo-long-window", time.Minute, "SLO burn-rate long window (short+long violating raises page)")
		version     = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version("bmwd"))
		return
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fatalf("bad -log-level %q: %v", *logLevel, err)
	}
	// The flight recorder is the black box: every error log line,
	// overload/backpressure edge, replication transition, WAL stall, SLO
	// transition and sampled/slow/errored span lands in its ring.
	flight := obs.NewFlightRecorder(*flightSize)
	logger := obs.NewEventLoggerFlight(os.Stderr, level, 5*time.Second, flight)

	var routing engine.Routing
	switch *route {
	case "hash":
		routing = engine.RouteHash
	case "rank":
		routing = engine.RouteRank
	default:
		fatalf("unknown -route %q (want hash or rank)", *route)
	}
	kind, err := engine.ParseKind(*queue)
	if err != nil {
		fatalf("%v", err)
	}

	cfg := engine.Config{
		Shards:     *shards,
		Kind:       kind,
		Order:      *order,
		Levels:     *levels,
		Cap:        *capacity,
		RingSize:   *ringSize,
		BatchSize:  *batch,
		Routing:    routing,
		RankBits:   *rankBits,
		RestoreDir: *persistDir,
		Overload: engine.Overload{
			HighFrac:         *ovHigh,
			LowFrac:          *ovLow,
			DrainLatencyHigh: *ovLatency,
			Cooloff:          *ovCooloff,
		},
	}
	eng, err := engine.New(cfg)
	if err != nil {
		fatalf("engine: %v", err)
	}

	reg := obs.NewRegistry()
	eng.Instrument(reg, "bmwd_engine")
	flight.Instrument(reg, "bmwd_flight")

	// Request tracing: stage quantiles aggregate whenever the obs
	// endpoint is up or an SLO judges them; sampled Chrome-trace export
	// needs -trace-sample.
	var rec *obs.TraceRecorder
	if *sample > 0 {
		rec = obs.NewTraceRecorder()
	}
	var tracer *obs.Tracer
	if *httpAddr != "" || rec != nil || *sloSpec != "" || flight != nil {
		tracer = obs.NewTracer(obs.TracerOptions{
			Registry:    reg,
			Prefix:      "bmwd_trace",
			Recorder:    rec,
			SampleEvery: *sample,
			Flight:      flight,
		})
	}

	// inc is declared before the SLO engine and replication node so
	// their trigger closures can capture it; it is built once both
	// exist.
	var inc *obs.IncidentCapturer

	srv := wire.NewServerConfig(eng, wire.ServerConfig{
		IdleTimeout:  *idleTO,
		WriteTimeout: *writeTO,
		MaxInflight:  *inflight,
		Tracer:       tracer,
	})
	// A persisting daemon answers anti-entropy fetch frames over its
	// own checkpoint directory, so a rotted peer pointed here with
	// -repair-from can heal itself from this node's sealed state.
	if *persistDir != "" {
		fetch := &replic.FetchServer{Dir: *persistDir}
		srv.SetFetchHandler(fetch.Handle)
	}
	// Cluster membership: the node enforces push ownership under the
	// live map, serves the map to clients and peers, and gossips
	// changes. Promotion (below) mints the successor map so routing
	// follows the failover.
	var (
		clState *cluster.State
		gsp     *cluster.Gossiper
	)
	if *clusterMap != "" {
		m, err := cluster.LoadFile(*clusterMap)
		if err != nil {
			fatalf("cluster: %v", err)
		}
		clState, err = cluster.NewState(m, uint32(*clusterNode))
		if err != nil {
			fatalf("cluster: %v", err)
		}
	}
	node := replic.Attach(eng, srv, replic.Config{
		Engine:      cfg,
		PrimaryAddr: *follow,
		Sync:        *replSync,
		SyncTimeout: *syncWait,
		Logger:      logger,
		Flight:      flight,
		OnIncident: func(trigger, reason string) {
			inc.CaptureAsync(trigger, reason)
		},
		OnPromote: func() {
			if clState == nil {
				return
			}
			m := clState.PromoteSelf()
			logger.Info("cluster: promotion minted map",
				"version", m.Version, "node", clState.Self())
			if gsp != nil {
				gsp.Kick()
			}
		},
	})
	node.Instrument(reg, "bmwd_repl")

	if clState != nil {
		notOwner := reg.Counter("bmwd_cluster_not_owner_total")
		reg.Help("bmwd_cluster_not_owner_total", "pushes refused with StatusNotOwner under the live cluster map")
		srv.SetOwnerGate(func(op wire.Op) (bool, uint64) {
			owned, ver := clState.Owns(op.Value, op.Meta)
			if !owned {
				notOwner.Add(1)
			}
			return owned, ver
		})
		srv.SetClusterHandlers(clState.EncodedIfNewer, clState.OfferEncoded)
		reg.GaugeFunc("bmwd_cluster_node_id", func() float64 { return float64(clState.Self()) })
		reg.GaugeFunc("bmwd_cluster_map_version", func() float64 { return float64(clState.Version()) })
		reg.GaugeFunc("bmwd_cluster_adopts", func() float64 { return float64(clState.Adopts()) })
		reg.GaugeFunc("bmwd_cluster_epoch", func() float64 {
			if n := clState.Current().ByID(clState.Self()); n != nil {
				return float64(n.Epoch)
			}
			return 0
		})
		reg.GaugeFunc("bmwd_cluster_band_start", func() float64 {
			s, _, _ := clState.Current().Band(clState.Self())
			return float64(s)
		})
		reg.GaugeFunc("bmwd_cluster_band_end", func() float64 {
			_, e, _ := clState.Current().Band(clState.Self())
			return float64(e)
		})
		gsp = cluster.NewGossiper(cluster.GossiperConfig{
			State:     clState,
			SelfAddrs: []string{*listen},
			Interval:  *gossipEvery,
			Logf: func(format string, args ...any) {
				logger.Info(fmt.Sprintf(format, args...))
			},
		})
		go gsp.Run()
	}

	// persistBad latches when the background scrubber (or an attempted
	// repair that could not converge) finds the durable state corrupt; a
	// sticky-poisoned WAL shows up on the <prefix>_wal_poisoned gauges
	// the checkpoint-time persist managers register. Either takes
	// /readyz to 503: a node whose durable state cannot be trusted must
	// not be the one traffic fails over to.
	var persistBad atomic.Bool
	walPoisoned := func() bool {
		for name, v := range reg.Snapshot().Gauges {
			if v != 0 && strings.HasSuffix(name, "_wal_poisoned") {
				return true
			}
		}
		return false
	}
	ready := func() bool {
		return node.Ready() && !persistBad.Load() && !walPoisoned()
	}

	detail := func() map[string]any {
		st := node.Status()
		d := map[string]any{
			"role":              node.Role(),
			"serving":           st.Serving,
			"degraded":          st.Degraded,
			"caught_up":         node.Ready(),
			"repl_lag":          node.Lag(),
			"overloaded_shards": eng.OverloadedShards(),
			"persist_ok":        !persistBad.Load() && !walPoisoned(),
		}
		if clState != nil {
			s, e, _ := clState.Current().Band(clState.Self())
			d["cluster_node"] = clState.Self()
			d["cluster_map_version"] = clState.Version()
			d["cluster_band"] = []uint64{s, e}
		}
		return d
	}

	var sloEng *obs.SLOEngine
	if *sloSpec != "" {
		names := obs.SLONames{LagGauge: "bmwd_repl_lag"}
		if tracer != nil {
			names.LatencyMetric = obs.StageMetricName("bmwd_trace", obs.StageIssue)
		}
		for i := 0; i < eng.Shards(); i++ {
			p := fmt.Sprintf("bmwd_engine_shard%d", i)
			names.BadCounters = append(names.BadCounters,
				p+"_overload_shed_total", p+"_backpressure_total")
			names.TotalCounters = append(names.TotalCounters,
				p+"_pushes_total", p+"_pops_total",
				p+"_overload_shed_total", p+"_backpressure_total")
		}
		objectives, err := obs.ParseSLOSpec(*sloSpec, names)
		if err != nil {
			fatalf("%v", err)
		}
		sloEng = obs.NewSLOEngine(obs.SLOOptions{
			Source:      reg,
			Registry:    reg,
			Prefix:      "bmwd_slo",
			ShortWindow: *sloShort,
			LongWindow:  *sloLong,
			Objectives:  objectives,
			Flight:      flight,
			OnChange: func(o obs.Objective, from, to obs.SLOState, value float64) {
				logger.Warn("SLO state change", "objective", o.Name,
					"from", from.String(), "to", to.String(), "value", value)
				if to == obs.SLOPage {
					inc.CaptureAsync("slo_page",
						fmt.Sprintf("%s=%.0f bound %.0f", o.Name, value, o.Bound))
				}
			},
		})
	}

	inc, err = obs.NewIncidentCapturer(obs.IncidentOptions{
		Dir:         *incidentDir,
		MaxBundles:  *incidentCap,
		MinInterval: *incidentGap,
		Flight:      flight,
		Registry:    reg,
		Trace:       rec,
		SLO:         sloEng,
		Detail:      detail,
		Logger:      logger,
	})
	if err != nil {
		fatalf("%v", err)
	}
	inc.Instrument(reg, "bmwd_incident")
	defer inc.PanicCapture()

	eng.SetHooks(engine.Hooks{
		Flight:        flight,
		Metrics:       reg,
		MetricsPrefix: "bmwd_persist",
		OnOverloadTrip: func(shard, occ int) {
			inc.CaptureAsync("overload", fmt.Sprintf("shard %d tripped at occupancy %d", shard, occ))
		},
		OnPanic: func(shard int, r any) {
			// Synchronous: the executing goroutine (the shard's drain
			// goroutine or a submitter) is about to re-panic and kill
			// the process — this bundle is the last chance.
			_, _ = inc.Capture("panic", fmt.Sprintf("shard %d: %v", shard, r))
		},
	})

	runtimeC := obs.NewRuntimeCollector(reg, "bmwd_runtime")
	runtimeC.SetFlight(flight, 10*time.Millisecond)
	stopRuntime := runtimeC.Start(5 * time.Second)
	sloEng.Start(time.Second)

	// Background integrity scrub over the checkpoint fan-out: one
	// io-throttled pass per -scrub-interval, verifying every shard's
	// manifest, WAL hash chain and snapshot Merkle root plus the
	// engine-manifest binding. First detection latches persistBad
	// (readyz → 503) and captures an incident; with -repair-from set,
	// each dirty pass also attempts anti-entropy repair from the peer
	// and clears the latch once the fan-out re-verifies clean.
	scrubDone := make(chan struct{})
	if *persistDir != "" && *scrubEvery > 0 {
		dirs := make([]string, eng.Shards())
		for i := range dirs {
			dirs[i] = engine.ShardDir(*persistDir, i)
		}
		scr := persist.NewScrubber(persist.ScrubConfig{
			Dirs:      dirs,
			RateBytes: *scrubRate,
			Metrics:   reg,
			Prefix:    "bmwd_persist",
			Flight:    flight,
			OnCorruption: func(dir string, findings []persist.Finding) {
				logger.Error("scrub: durable state corrupt",
					"dir", dir, "findings", len(findings), "first", findings[0].String())
				inc.CaptureAsync("integrity", dir+": "+findings[0].String())
			},
		})
		go func() {
			t := time.NewTicker(*scrubEvery)
			defer t.Stop()
			for {
				select {
				case <-scrubDone:
					return
				case <-t.C:
				}
				dirty := false
				for range dirs {
					select {
					case <-scrubDone:
						return
					default:
					}
					if r := scr.Step(); r != nil && !r.Clean() {
						dirty = true
					}
				}
				if err := verifyEngineBinding(*persistDir); err != nil {
					dirty = true
					if !persistBad.Swap(true) {
						logger.Error("scrub: engine manifest binding broken", "err", err)
						inc.CaptureAsync("integrity", err.Error())
					}
				}
				if !dirty {
					continue
				}
				persistBad.Store(true)
				if *repairFrom == "" {
					continue
				}
				f, err := replic.DialFetcher(*repairFrom, 5*time.Second)
				if err != nil {
					logger.Error("scrub: repair peer unreachable", "peer", *repairFrom, "err", err)
					continue
				}
				rep, err := replic.RepairCheckpoint(*persistDir, f, replic.RepairConfig{
					Metrics: reg, Prefix: "bmwd_repl", Flight: flight,
				})
				f.Close()
				if err != nil || !rep.Clean {
					logger.Error("scrub: anti-entropy repair did not converge",
						"peer", *repairFrom, "err", err)
					continue
				}
				persistBad.Store(false)
				logger.Warn("scrub: anti-entropy repair converged, durable state restored",
					"peer", *repairFrom, "ops_fetched", rep.OpsFetched,
					"chunks_fetched", rep.ChunksFetched, "manifests_fetched", rep.ManifestsFetched)
			}
		}()
	}

	var obsSrv *http.Server
	if *httpAddr != "" {
		obsSrv = obs.NewServerOpts(*httpAddr, reg, obs.HandlerOptions{
			Healthy: func() bool { return true },
			Ready:   ready,
			Detail:  detail,
			Trace:   rec,
			SLO:     sloEng,
			Flight:  flight,
		})
		go func() {
			if err := obsSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("obs server failed", "err", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatalf("listen: %v", err)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	promc := make(chan os.Signal, 1)
	signal.Notify(promc, syscall.SIGUSR1)
	go func() {
		for range promc {
			logger.Info("SIGUSR1: promoting")
			node.Promote()
		}
	}()
	// SIGQUIT is the operator's "freeze the black box now" trigger: a
	// forced incident capture (bypasses rate limiting), then keep
	// serving.
	quitc := make(chan os.Signal, 1)
	signal.Notify(quitc, syscall.SIGQUIT)
	go func() {
		for range quitc {
			if inc == nil {
				logger.Warn("SIGQUIT received but -incident-dir is not set")
				continue
			}
			_, _ = inc.Capture("sigquit", "operator-requested capture")
		}
	}()

	// Readiness-flip watcher: record every edge in the flight ring and
	// capture a bundle when a node that was serving traffic stops being
	// ready — the moment an operator will want the black box for.
	watchDone := make(chan struct{})
	go func() {
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		last := ready()
		for {
			select {
			case <-watchDone:
				return
			case <-t.C:
				now := ready()
				if now == last {
					continue
				}
				was := last
				last = now
				b := uint64(0)
				if now {
					b = 1
				}
				flight.Record(obs.FlightReady, 0, b, 0, 0)
				if was && !now {
					inc.CaptureAsync("readyz_flip", "node stopped reporting ready")
				}
			}
		}
	}()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	logger.Info("serving",
		"role", node.Role(), "shards", eng.Shards(), "queue", kind.String(),
		"addr", ln.Addr().String(), "route", *route, "trace_sample", *sample)
	if *follow != "" {
		logger.Info("following primary; promote with SIGUSR1 or an admin frame",
			"primary", *follow)
	}

	select {
	case sig := <-sigc:
		logger.Info("draining", "signal", sig.String())
	case err := <-serveErr:
		if err != nil && !errors.Is(err, net.ErrClosed) {
			fatalf("serve: %v", err)
		}
	}

	close(watchDone)
	close(scrubDone)
	if gsp != nil {
		gsp.Stop()
	}
	sloEng.Stop()
	stopRuntime()

	ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Error("shutdown", "err", err)
	}
	node.Close()
	if obsSrv != nil {
		_ = obsSrv.Shutdown(ctx)
	}
	eng.Close()
	if *persistDir != "" {
		if err := eng.Checkpoint(*persistDir); err != nil {
			fatalf("checkpoint: %v", err)
		}
		logger.Info("checkpointed", "elements", eng.Len(), "dir", *persistDir)
	}
	logger.Info("bye")
}

// verifyEngineBinding checks the checkpoint's ENGINE.json and, when it
// carries the integrity seal, that every shard's MANIFEST.json still
// matches the sealed checksum. A directory without a checkpoint (or a
// legacy unsealed one) is fine.
func verifyEngineBinding(dir string) error {
	m, err := engine.LoadEngineManifest(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(m.ShardChecksums) != m.Shards {
		return nil
	}
	for i := 0; i < m.Shards; i++ {
		sm, err := persist.LoadManifest(nil, engine.ShardDir(dir, i))
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if sm.Checksum != m.ShardChecksums[i] {
			return fmt.Errorf("shard %d manifest checksum %.12s not sealed by %s",
				i, sm.Checksum, engine.EngineManifestName)
		}
	}
	return nil
}
