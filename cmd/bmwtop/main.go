// bmwtop is a live terminal dashboard for a running bmwd: it polls the
// daemon's observability endpoint (/metrics.json and /readyz) and
// renders windowed request-stage latencies, per-shard throughput, and
// replication lag — top(1) for the serving stack.
//
// All rates and quantiles are computed over the poll window by
// differencing consecutive registry snapshots, so the display shows
// what happened in the last -interval, not lifetime averages.
//
// Examples:
//
//	bmwtop -addr 127.0.0.1:9971              # refresh every second
//	bmwtop -addr 127.0.0.1:9971 -interval 5s
//	bmwtop -addr 127.0.0.1:9971 -once        # one frame, no ANSI, pipeable
//	bmwtop -cluster 127.0.0.1:9970           # per-node fleet view via the cluster map
//
// With -cluster, bmwtop fetches the cluster map over the wire protocol
// from the given bmwd, then scrapes every node's advertised obs
// address and renders one row per node: role, owned band, the map
// version it serves under, windowed request rate, queue length,
// replication lag and readiness.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/obs"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bmwtop: "+format+"\n", args...)
	os.Exit(1)
}

// fetchSnapshot pulls the daemon's full registry snapshot.
func fetchSnapshot(c *http.Client, base string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := c.Get(base + "/metrics.json")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET /metrics.json: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

// fetchSLO pulls /slo.json. A daemon without -slo (or an older one
// without the endpoint) yields nil — the dashboard simply omits the
// SLO line.
func fetchSLO(c *http.Client, base string) *obs.SLOStatus {
	resp, err := c.Get(base + "/slo.json")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var st obs.SLOStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil
	}
	if len(st.Objectives) == 0 {
		return nil
	}
	return &st
}

// fetchProbe pulls the /readyz JSON body. Both 200 and 503 carry the
// detail map (an unready follower is exactly when the detail matters),
// so only transport and decode failures return nil.
func fetchProbe(c *http.Client, base string) map[string]any {
	resp, err := c.Get(base + "/readyz")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil
	}
	return body
}

// scrape polls the daemon once and builds the frame for the window
// since prev; it hands back the snapshot and its time as the next prev.
func scrape(c *http.Client, addr string, prev obs.Snapshot, prevAt time.Time) (model, obs.Snapshot, time.Time, error) {
	base := "http://" + addr
	cur, err := fetchSnapshot(c, base)
	now := time.Now()
	if err != nil {
		return model{}, cur, now, err
	}
	m := buildModel(addr, prev, cur, now.Sub(prevAt), fetchProbe(c, base))
	m.SLO = fetchSLO(c, base)
	return m, cur, now, nil
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:9971", "bmwd observability HTTP address (its -http flag)")
		clSeed   = flag.String("cluster", "", "bmwd wire address to fetch the cluster map from; renders a per-node fleet view instead of one daemon")
		interval = flag.Duration("interval", time.Second, "poll and refresh interval")
		once     = flag.Bool("once", false, "render a single frame (one interval window) and exit")
		version  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version("bmwtop"))
		return
	}
	if *clSeed != "" {
		runCluster(*clSeed, *interval, *once)
		return
	}

	client := &http.Client{Timeout: 10 * time.Second}

	prev, err := fetchSnapshot(client, "http://"+*addr)
	if err != nil {
		fatalf("cannot reach %s: %v", *addr, err)
	}
	prevAt := time.Now()

	for {
		time.Sleep(*interval)
		m, cur, now, err := scrape(client, *addr, prev, prevAt)
		if err != nil {
			if *once {
				fatalf("scrape: %v", err)
			}
			fmt.Fprintf(os.Stderr, "bmwtop: scrape: %v\n", err)
			continue
		}
		if !*once {
			fmt.Print("\x1b[H\x1b[2J") // home + clear: repaint in place
		}
		render(os.Stdout, m)
		if *once {
			return
		}
		prev, prevAt = cur, now
	}
}
