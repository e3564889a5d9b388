// bmwd serves a sharded BMW-Tree scheduling engine over the wire
// protocol. This file is flags and signals; the node itself — engine,
// wire server, replication, cluster membership, scrub/repair,
// observability — is assembled by internal/node, the same way for the
// daemon and for every harness (DESIGN.md §6 "Node assembly").
//
// Signals: SIGINT/SIGTERM drain connections, close the engine and,
// with -persist, checkpoint every shard for the next start to restore;
// SIGUSR1 promotes a -follow standby to serving primary; SIGQUIT
// freezes an incident bundle into -incident-dir and keeps serving.
//
// Examples:
//
//	bmwd -listen :9970 -shards 4
//	bmwd -listen :9970 -shards 4 -m 4 -l 6 -http :9971
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
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/node"
)

// drainBudget is how long a graceful shutdown waits for clients to
// finish before their connections are cut.
const drainBudget = 10 * time.Second

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bmwd: "+format+"\n", args...)
	os.Exit(1)
}

// options are the daemon's flags: most land straight in the node's
// configuration, the rest are resolved into it by resolve. DESIGN.md §6
// "Node assembly" carries the same table; main_test.go fails when the
// two differ.
type options struct {
	node.Config
	listen, logLevel, clusterMap string
	clusterNode                  uint
	version                      bool
}

func registerFlags(fs *flag.FlagSet, o *options) {
	e := &o.Engine
	fs.StringVar(&o.listen, "listen", "127.0.0.1:9970", "wire protocol listen address")
	fs.IntVar(&e.Shards, "shards", 4, "number of engine shards (each owns one BMW tree)")
	fs.IntVar(&e.Order, "m", 2, "tree order m")
	fs.IntVar(&e.Levels, "l", 11, "tree levels")
	fs.StringVar(&o.HTTPAddr, "http", "", "observability HTTP address (/metrics, /healthz, /readyz, /slo.json, /flight.json, /trace.json, pprof); empty = off")
	fs.IntVar(&o.TraceSample, "trace-sample", 0, "export 1 of every N request spans to the Chrome trace at /trace.json (0 = aggregate-only tracing)")
	fs.StringVar(&o.logLevel, "log-level", "info", "structured log level: debug, info, warn, error")
	fs.StringVar(&o.PersistDir, "persist", "", "checkpoint directory: restore on start, checkpoint on shutdown")

	fs.DurationVar(&o.ScrubInterval, "scrub-interval", time.Minute, "background integrity-scrub pass interval over the -persist checkpoint (0 = off)")
	fs.Int64Var(&o.ScrubRate, "scrub-rate", 8<<20, "scrub io throttle in bytes/second (0 = unthrottled)")
	fs.StringVar(&o.RepairFrom, "repair-from", "", "peer wire address to anti-entropy repair the -persist checkpoint from when the scrubber finds rot (empty = detect only)")

	fs.StringVar(&o.clusterMap, "cluster-map", "", "cluster map JSON file; joins this node to a multi-node cluster")
	fs.UintVar(&o.clusterNode, "cluster-node", 0, "this node's id in the -cluster-map")
	fs.DurationVar(&o.GossipInterval, "gossip-every", 2*time.Second, "cluster map gossip sweep interval")

	fs.StringVar(&o.Follow, "follow", "", "start as a hot standby streaming from this primary address")
	fs.BoolVar(&o.ReplSync, "repl-sync", false, "primary: hold dedup-enrolled responses until the follower acks (zero acked-op loss)")

	fs.StringVar(&o.IncidentDir, "incident-dir", "", "write incident bundles here on panic/SIGQUIT/repl-degrade/SLO-page (empty = off)")
	fs.StringVar(&o.SLO, "slo", "", "comma-separated SLOs, e.g. p99<10ms,availability>0.999,lag<5000 (empty = off)")
	fs.BoolVar(&o.version, "version", false, "print version and exit")
}

// resolve parses the string-valued flags into o.Config; the only thing
// it leaves out is the listener.
func (o *options) resolve() error {
	var level slog.Level
	err := level.UnmarshalText([]byte(o.logLevel))
	if err != nil {
		return fmt.Errorf("bad -log-level %q: %v", o.logLevel, err)
	}
	o.Log = slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	o.ClusterNode = uint32(o.clusterNode)
	if o.clusterMap != "" {
		if o.ClusterMap, err = cluster.LoadFile(o.clusterMap); err != nil {
			return fmt.Errorf("cluster: %v", err)
		}
	}
	return nil
}

// serve handles signals until one asks for shutdown (nil) or the accept
// loop exits on its own (its error). Signals are handled one at a time,
// so a SIGTERM behind a SIGQUIT finds the bundle complete.
func serve(n *node.Node, sigc <-chan os.Signal, logger *slog.Logger) error {
	for {
		select {
		case sig := <-sigc:
			switch sig {
			case syscall.SIGUSR1:
				logger.Info("SIGUSR1: promoting")
				n.Promote()
			case syscall.SIGQUIT: // a forced capture (bypasses rate limiting), then keep serving
				if dir, err := n.Capture("sigquit", "operator-requested capture"); dir == "" && err == nil {
					logger.Warn("SIGQUIT received but -incident-dir is not set")
				}
			default:
				logger.Info("draining", "signal", sig.String())
				return nil
			}
		case err := <-n.ServeErr():
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
	}
}

func main() {
	var o options
	registerFlags(flag.CommandLine, &o)
	flag.Parse()
	if o.version {
		fmt.Println(buildinfo.Version("bmwd"))
		return
	}
	err := o.resolve()
	if err != nil {
		fatalf("%v", err)
	}
	if o.Listener, err = net.Listen("tcp", o.listen); err != nil {
		fatalf("listen: %v", err)
	}
	n, err := node.Start(o.Config)
	if err != nil {
		fatalf("%v", err)
	}
	logger := slog.New(o.Log)

	// One of each may arrive while the previous is being handled.
	sigc := make(chan os.Signal, 4)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM, syscall.SIGUSR1, syscall.SIGQUIT)
	if err := serve(n, sigc, logger); err != nil {
		fatalf("serve: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainBudget)
	defer cancel()
	if err := n.Close(ctx); err != nil {
		fatalf("%v", err)
	}
	logger.Info("bye")
}
