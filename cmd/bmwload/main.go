// bmwload is the load generator for bmwd: it drives the wire protocol
// with concurrent pipelined connections and reports throughput (Mops)
// and batch latency quantiles, on stdout and optionally as a bmwload/v1
// JSON report.
//
// Two pacing modes:
//
//	closed  each in-flight pipeline slot issues its next batch the
//	        moment the previous one completes — measures capacity.
//	open    batches are issued on a fixed schedule at -rate ops/sec
//	        regardless of completions — measures latency under a
//	        target load, including coordinated-omission-free queueing
//	        delay (latency is measured from the scheduled issue time).
//
// Connections are resilient: each one retries idempotently-keyed
// batches across reconnects with capped backoff, honours -req-timeout
// per attempt, and fails over to -standby addresses when the primary
// dies or answers StatusNotPrimary. Retry/timeout/reconnect/failover
// tallies land in the summary and the JSON report, and the run exits
// non-zero if any acknowledged op's fate is indeterminate (a retry
// missed the server's dedup replay window).
//
// Examples:
//
//	bmwload -addr 127.0.0.1:9970 -conns 2 -pipeline 4 -duration 5s
//	bmwload -inproc -shards 4 -duration 5s -out load.json
//	bmwload -addr 127.0.0.1:9970 -mode open -rate 500000 -duration 10s
//	bmwload -addr 127.0.0.1:9970 -standby 127.0.0.1:9980 -duration 30s
//	bmwload -cluster 127.0.0.1:9970,127.0.0.1:9972 -duration 10s
//
// With -cluster, bmwload fetches the cluster map from the seed
// addresses and drives every node through the routing client: pushes
// go to their owner under the map (StatusNotOwner redirects refresh
// it), pops run the cross-node strict merge, and the summary and JSON
// report gain per-node op counts plus redirect and map-refresh
// tallies.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/wire"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bmwload: "+format+"\n", args...)
	os.Exit(1)
}

// metric is one named measurement in the report.
type metric struct {
	Value     float64 `json:"value"`
	Unit      string  `json:"unit"`
	Direction string  `json:"direction"`
}

// report is the bmwload/v1 document -out writes: run metadata plus the
// metrics map.
type report struct {
	Schema     string            `json:"schema"`
	Experiment string            `json:"experiment"`
	GoVersion  string            `json:"go_version"`
	GoMaxProcs int               `json:"gomaxprocs"`
	NumCPU     int               `json:"num_cpu"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	Commit     string            `json:"commit"`
	Metrics    map[string]metric `json:"metrics"`
}

// counters aggregates worker-side tallies with atomics.
type counters struct {
	ops          atomic.Uint64 // operations completed (any status)
	pushOK       atomic.Uint64
	popOK        atomic.Uint64
	empty        atomic.Uint64
	backpressure atomic.Uint64
	overloaded   atomic.Uint64
	full         atomic.Uint64
	invalid      atomic.Uint64
	protoErrs    atomic.Uint64
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:9970", "bmwd address to load")
		inproc   = flag.Bool("inproc", false, "start an in-process bmwd node on a loopback port instead of dialing -addr")
		shards   = flag.Int("shards", 4, "shard count for -inproc")
		conns    = flag.Int("conns", 2, "client connections")
		pipeline = flag.Int("pipeline", 4, "in-flight batches per connection")
		batch    = flag.Int("batch", 64, "operations per batch")
		mix      = flag.Float64("mix", 0.5, "push fraction of the op mix (rest are pops)")
		duration = flag.Duration("duration", 5*time.Second, "measurement length")
		mode     = flag.String("mode", "closed", "pacing: closed (capacity) or open (fixed -rate)")
		rate     = flag.Float64("rate", 1e6, "target ops/sec for -mode open, across all workers")
		seed     = flag.Int64("seed", 1, "workload seed")
		out      = flag.String("out", "", "write a bmwload/v1 JSON report here (default stdout summary only)")
		metrics  = flag.String("metrics-addr", "", "bmwd obs HTTP address (host:port) to scrape for per-stage latency quantiles and the server trace")
		traceOut = flag.String("trace-out", "", "write the server's Chrome trace JSON here after the run (needs -metrics-addr with bmwd -trace-sample, or -inproc)")
		sample   = flag.Int("trace-sample", 64, "inproc server: export 1 of every N request spans to the trace")
		seeds    = flag.String("cluster", "", "comma-separated cluster seed addresses: fetch the cluster map and route ops across the nodes instead of dialing -addr")
		standby  = flag.String("standby", "", "comma-separated standby addresses to fail over to")
		reqTO    = flag.Duration("req-timeout", 5*time.Second, "per-attempt request deadline")
		retryMax = flag.Int("retry-max", 8, "attempts per request before giving up (0 = unlimited)")
		version  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version("bmwload"))
		return
	}
	if *mix < 0 || *mix > 1 {
		fatalf("-mix %v out of [0,1]", *mix)
	}
	if *mode != "closed" && *mode != "open" {
		fatalf("unknown -mode %q (want closed or open)", *mode)
	}

	// -inproc starts a bmwd node (internal/node) on loopback ports and
	// scrapes its obs endpoint like any other: a self-contained smoke test.
	target, obsAddr := *addr, *metrics
	if *inproc {
		n, err := node.Start(node.Config{
			Engine:      engine.Config{Shards: *shards, Order: 2, Levels: 11},
			HTTPAddr:    "127.0.0.1:0",
			TraceSample: *sample,
		})
		if err != nil {
			fatalf("inproc node: %v", err)
		}
		defer n.Kill() // volatile node: nothing to drain for, nothing to checkpoint
		target, obsAddr = n.Addr(), n.HTTPAddr()
	}
	var src *scraper
	if obsAddr != "" {
		src = &scraper{addr: obsAddr, client: http.Client{Timeout: 10 * time.Second}}
	}
	if *traceOut != "" && src == nil {
		fatalf("-trace-out needs -metrics-addr (a bmwd run with -http and -trace-sample) or -inproc")
	}

	var (
		clients []*wire.ResilientClient
		cl      *cluster.Client
	)
	if *seeds != "" {
		if *inproc {
			fatalf("-cluster and -inproc are mutually exclusive")
		}
		c, err := cluster.NewClient(cluster.Options{
			Seeds:          strings.Split(*seeds, ","),
			RequestTimeout: *reqTO,
			MaxAttempts:    *retryMax,
		})
		if err != nil {
			fatalf("cluster client: %v", err)
		}
		defer c.Close()
		cl = c
		// Probe through the merge once so a dead cluster fails fast.
		if _, err := cl.PopMin(); err != nil {
			fatalf("probe cluster %s: %v", *seeds, err)
		}
		m := cl.Map()
		fmt.Printf("bmwload: cluster map version %d, %d node(s), %s routing, %d worker(s), %s %s\n",
			m.Version, len(m.Nodes), m.Mode, *conns**pipeline, *mode, *duration)
	} else {
		addrs := []string{target}
		if *standby != "" {
			addrs = append(addrs, strings.Split(*standby, ",")...)
		}
		clients = make([]*wire.ResilientClient, *conns)
		for i := range clients {
			c, err := wire.NewResilientClient(wire.ResilientOptions{
				Addrs:          addrs,
				RequestTimeout: *reqTO,
				MaxAttempts:    *retryMax,
				Conn: wire.ClientOptions{
					ReadTimeout:  *reqTO,
					WriteTimeout: *reqTO,
				},
			})
			if err != nil {
				fatalf("client: %v", err)
			}
			defer c.Close()
			clients[i] = c
		}
		// Probe the primary once so a bad address fails fast and loudly.
		if _, err := clients[0].Do([]wire.Op{{Kind: wire.OpPop}}); err != nil {
			fatalf("probe %s: %v", strings.Join(addrs, ","), err)
		}
		fmt.Printf("bmwload: %d resilient conn(s) x %d pipeline to %s, %s %s\n",
			*conns, *pipeline, strings.Join(addrs, ","), *mode, *duration)
	}

	var (
		cnt  counters
		hist = obs.NewQuantileHistogram() // batch latency, microseconds
		wg   sync.WaitGroup
	)
	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()

	workers := *conns * *pipeline
	perWorkerInterval := time.Duration(0)
	if *mode == "open" {
		if *rate <= 0 {
			fatalf("-mode open needs -rate > 0")
		}
		// Each worker issues batches of -batch ops; the fleet together
		// must hit -rate ops/sec, so each worker's period is
		// workers*batch/rate seconds.
		perWorkerInterval = time.Duration(float64(workers) * float64(*batch) / *rate * float64(time.Second))
	}

	var startSnap obs.Snapshot
	if src != nil {
		var err error
		if startSnap, err = src.snap(); err != nil {
			fatalf("scrape %s: %v", src.addr, err)
		}
	}

	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var d doer = cl
			if cl == nil {
				d = clients[w%len(clients)]
			}
			runWorker(ctx, d, workerCfg{
				batch:    *batch,
				mix:      *mix,
				rng:      rand.New(rand.NewSource(*seed + int64(w))),
				interval: perWorkerInterval,
				offset:   time.Duration(w) * perWorkerInterval / time.Duration(workers),
			}, &cnt, hist)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if n := cnt.protoErrs.Load(); n > 0 {
		fatalf("%d protocol error(s) during run", n)
	}
	if n := cnt.invalid.Load(); n > 0 {
		fatalf("%d operation(s) rejected as invalid", n)
	}

	snap := hist.Snapshot()
	mops := float64(cnt.ops.Load()) / elapsed.Seconds() / 1e6
	fmt.Printf("bmwload: %.3f Mops (%d ops in %v)\n", mops, cnt.ops.Load(), elapsed.Round(time.Millisecond))
	fmt.Printf("bmwload: batch latency us p50=%d p99=%d p999=%d max=%d\n",
		snap.P50, snap.P99, snap.P999, snap.Max)
	fmt.Printf("bmwload: push_ok=%d pop_ok=%d empty=%d backpressure=%d overloaded=%d full=%d\n",
		cnt.pushOK.Load(), cnt.popOK.Load(), cnt.empty.Load(), cnt.backpressure.Load(),
		cnt.overloaded.Load(), cnt.full.Load())

	var rs wire.ResilientStats
	clusterMetrics := map[string]metric{}
	if cl != nil {
		cs := cl.Stats()
		nodeLine := ""
		for id, ns := range cs.PerNode {
			rs.Retries += ns.Resilient.Retries
			rs.Timeouts += ns.Resilient.Timeouts
			rs.Reconnects += ns.Resilient.Reconnects
			rs.Failovers += ns.Resilient.Failovers
			rs.DedupMisses += ns.Resilient.DedupMisses
			nodeLine += fmt.Sprintf(" node%d=%d", id, ns.Ops)
			clusterMetrics[fmt.Sprintf("load_cluster_node%d_ops", id)] = metric{float64(ns.Ops), "count", "higher"}
		}
		fmt.Printf("bmwload: cluster redirects=%d map_refreshes=%d map_version=%d per-node ops:%s\n",
			cs.Redirects, cs.MapRefreshes, cs.MapVersion, nodeLine)
		// Merge round trips per popped element: 1 or more when every
		// pop travels alone, under 1 when a batch's pops share rounds.
		roundsPerPop := float64(cs.PopRounds) / float64(max(cnt.popOK.Load(), 1))
		fmt.Printf("bmwload: cluster pop_rounds=%d pop_rounds_per_ok_pop=%.3f\n", cs.PopRounds, roundsPerPop)
		clusterMetrics["load_cluster_pop_rounds"] = metric{float64(cs.PopRounds), "count", "lower"}
		clusterMetrics["load_cluster_pop_rounds_per_ok_pop"] = metric{roundsPerPop, "ratio", "lower"}
		clusterMetrics["load_cluster_redirects"] = metric{float64(cs.Redirects), "count", "lower"}
		clusterMetrics["load_cluster_map_refreshes"] = metric{float64(cs.MapRefreshes), "count", "lower"}
		clusterMetrics["load_cluster_map_version"] = metric{float64(cs.MapVersion), "count", "higher"}
	}
	for _, c := range clients {
		s := c.Stats()
		rs.Retries += s.Retries
		rs.Timeouts += s.Timeouts
		rs.Reconnects += s.Reconnects
		rs.Failovers += s.Failovers
		rs.DedupMisses += s.DedupMisses
	}
	fmt.Printf("bmwload: retries=%d timeouts=%d reconnects=%d failovers=%d dedup_miss=%d\n",
		rs.Retries, rs.Timeouts, rs.Reconnects, rs.Failovers, rs.DedupMisses)

	// Per-stage server-side latency decomposition: the run window's
	// delta between the start and end scrapes of the tracer's stage
	// quantile histograms.
	stageMetrics := map[string]metric{}
	if src != nil {
		endSnap, err := src.snap()
		if err != nil {
			fatalf("scrape %s: %v", src.addr, err)
		}
		fmt.Printf("bmwload: server stage latency us (p50/p99):")
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			name := obs.StageMetricName(tracePrefix, st)
			w := endSnap.Quantile(name).Sub(startSnap.Quantile(name))
			label := st.String()
			if st == obs.StageIssue {
				label = "total"
			}
			fmt.Printf(" %s=%.1f/%.1f", label, float64(w.P50)/1e3, float64(w.P99)/1e3)
			stageMetrics["load_stage_"+label+"_p50_us"] = metric{float64(w.P50) / 1e3, "us", "lower"}
			stageMetrics["load_stage_"+label+"_p99_us"] = metric{float64(w.P99) / 1e3, "us", "lower"}
		}
		fmt.Println()
	}
	if *traceOut != "" {
		b, err := src.trace()
		if err != nil {
			fatalf("fetch trace: %v", err)
		}
		tr, err := obs.ParseTrace(b)
		if err != nil {
			fatalf("parse trace: %v", err)
		}
		if err := obs.ValidateTrace(tr); err != nil {
			fatalf("server trace failed validation: %v", err)
		}
		if err := os.WriteFile(*traceOut, b, 0o644); err != nil {
			fatalf("write %s: %v", *traceOut, err)
		}
		fmt.Printf("bmwload: wrote %s (%d trace events)\n", *traceOut, len(tr.TraceEvents))
	}

	if *out != "" {
		r := report{
			Schema:     "bmwload/v1",
			Experiment: "load",
			GoVersion:  runtime.Version(),
			GoMaxProcs: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			Commit:     buildinfo.Commit(),
			Metrics: map[string]metric{
				"load_mops":       {mops, "Mops", "higher"},
				"load_p50_us":     {float64(snap.P50), "us", "lower"},
				"load_p99_us":     {float64(snap.P99), "us", "lower"},
				"load_p999_us":    {float64(snap.P999), "us", "lower"},
				"load_retries":    {float64(rs.Retries), "count", "lower"},
				"load_timeouts":   {float64(rs.Timeouts), "count", "lower"},
				"load_reconnects": {float64(rs.Reconnects), "count", "lower"},
				"load_failovers":  {float64(rs.Failovers), "count", "lower"},
				"load_dedup_miss": {float64(rs.DedupMisses), "count", "lower"},
			},
		}
		for k, m := range stageMetrics {
			r.Metrics[k] = m
		}
		for k, m := range clusterMetrics {
			r.Metrics[k] = m
		}
		b, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			fatalf("marshal report: %v", err)
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fatalf("write %s: %v", *out, err)
		}
		fmt.Printf("bmwload: wrote %s\n", *out)
	}

	// A dedup miss means a retried request fell out of the server's
	// replay window: the op may have been applied without its ack ever
	// reaching us, so an acknowledged-op fate is indeterminate. Report
	// it as loss and fail the run (the JSON above still lands so the
	// evidence survives).
	if rs.DedupMisses > 0 {
		fatalf("%d request(s) with indeterminate outcome (dedup window miss) — possible acked-op loss", rs.DedupMisses)
	}
}

// doer is the worker-facing batch interface: one bmwd connection
// (ResilientClient) or the whole cluster behind the routing client.
type doer interface {
	Do(ops []wire.Op) ([]wire.Result, error)
}

// workerCfg parameterises one load goroutine.
type workerCfg struct {
	batch    int
	mix      float64
	rng      *rand.Rand
	interval time.Duration // 0 = closed loop
	offset   time.Duration // open-loop phase stagger
}

// runWorker issues batches until ctx expires. In open-loop mode the
// latency clock starts at the *scheduled* issue time, so a slow server
// accrues queueing delay instead of silently omitting it.
func runWorker(ctx context.Context, c doer, cfg workerCfg, cnt *counters, hist *obs.QuantileHistogram) {
	ops := make([]wire.Op, cfg.batch)
	next := time.Now().Add(cfg.offset)
	for {
		select {
		case <-ctx.Done():
			return
		default:
		}
		for i := range ops {
			if cfg.rng.Float64() < cfg.mix {
				ops[i] = wire.Op{Kind: wire.OpPush, Value: cfg.rng.Uint64() >> 34, Meta: cfg.rng.Uint64()}
			} else {
				ops[i] = wire.Op{Kind: wire.OpPop}
			}
		}
		issued := time.Now()
		if cfg.interval > 0 {
			if d := time.Until(next); d > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(d):
				}
			}
			issued = next
			next = next.Add(cfg.interval)
		}
		res, err := c.Do(ops)
		if err != nil {
			if ctx.Err() == nil {
				cnt.protoErrs.Add(1)
			}
			return
		}
		hist.Observe(uint64(time.Since(issued).Microseconds()))
		cnt.ops.Add(uint64(len(res)))
		for i, r := range res {
			switch r.Status {
			case wire.StatusOK:
				if ops[i].Kind == wire.OpPush {
					cnt.pushOK.Add(1)
				} else {
					cnt.popOK.Add(1)
				}
			case wire.StatusEmpty:
				cnt.empty.Add(1)
			case wire.StatusBackpressure:
				cnt.backpressure.Add(1)
			case wire.StatusOverloaded:
				cnt.overloaded.Add(1)
			case wire.StatusFull:
				cnt.full.Add(1)
			default:
				cnt.invalid.Add(1)
			}
		}
	}
}

// tracePrefix is the metric-name prefix bmwd registers the request
// tracer under.
const tracePrefix = "bmwd_trace"

// scraper reads a bmwd's obs HTTP endpoint: where the run's server-side
// observability comes from.
type scraper struct {
	addr   string
	client http.Client
}

func (sc *scraper) get(path string) ([]byte, error) {
	resp, err := sc.client.Get("http://" + sc.addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func (sc *scraper) snap() (obs.Snapshot, error) {
	var s obs.Snapshot
	b, err := sc.get("/metrics.json")
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(b, &s)
}

func (sc *scraper) trace() ([]byte, error) { return sc.get("/trace.json") }
