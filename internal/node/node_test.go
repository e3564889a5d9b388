package node

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/refpq"
	"repro/internal/wire"
)

// geom is a small two-shard engine: a sequential caller's pops come back
// in exact global order, so a drain can be checked against refpq.
var geom = engine.Config{Shards: 2, Order: 2, Levels: 8}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// start boots a node on loopback and kills it when the test ends
// (a no-op for a test that already closed it).
func start(t *testing.T, cfg Config) *Node {
	t.Helper()
	if cfg.Engine.Shards == 0 {
		cfg.Engine = geom
	}
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Kill)
	return n
}

func closeNode(t *testing.T, n *Node) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// dial opens a session-enrolled client, the kind whose responses a
// sync primary holds for the follower's ack.
func dial(t *testing.T, addr string) *wire.ResilientClient {
	t.Helper()
	rc, err := wire.NewResilientClient(wire.ResilientOptions{
		Addrs: []string{addr}, RequestTimeout: 2 * time.Second, MaxAttempts: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	return rc
}

// pushAll pushes count random 16-bit ranks, one acked op per frame, and
// returns the reference queue holding exactly what was acked.
func pushAll(t *testing.T, rc *wire.ResilientClient, count int) *refpq.Queue {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	golden := refpq.New()
	for i := 0; i < count; i++ {
		op := wire.Op{Kind: wire.OpPush, Value: rng.Uint64() >> 48, Meta: uint64(i)}
		res, err := rc.Do([]wire.Op{op})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Status != wire.StatusOK {
			t.Fatalf("push %d: status %v", i, res[0].Status)
		}
		golden.Push(refpq.Entry{Value: op.Value, Meta: op.Meta})
	}
	return golden
}

// drainAgainst pops the node empty, one op per frame, and checks every
// pop against the reference queue.
func drainAgainst(t *testing.T, rc *wire.ResilientClient, golden *refpq.Queue) {
	t.Helper()
	for {
		res, err := rc.Do([]wire.Op{{Kind: wire.OpPop}})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Status == wire.StatusEmpty {
			break
		}
		if res[0].Status != wire.StatusOK {
			t.Fatalf("pop: status %v", res[0].Status)
		}
		if golden.Len() == 0 {
			t.Fatalf("popped %d beyond the reference: duplicated apply", res[0].Value)
		}
		if want := golden.PopMin(); res[0].Value != want.Value {
			t.Fatalf("popped %d, reference says %d", res[0].Value, want.Value)
		}
	}
	if golden.Len() != 0 {
		t.Fatalf("node empty, reference still holds %d: acked-op loss", golden.Len())
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func get(t *testing.T, n *Node, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + n.HTTPAddr() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// bundlesByTrigger validates every bundle under dir and tallies them.
func bundlesByTrigger(t *testing.T, dir string) map[string]int {
	t.Helper()
	bundles, err := obs.ListIncidentBundles(dir)
	if err != nil {
		t.Fatal(err)
	}
	tally := map[string]int{}
	for _, b := range bundles {
		if err := obs.ValidateIncidentBundle(b); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(b, "manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		man, err := obs.ParseIncidentManifest(raw)
		if err != nil {
			t.Fatal(err)
		}
		tally[man.Trigger]++
	}
	return tally
}

func TestPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	n := start(t, Config{PersistDir: dir})
	rc := dial(t, n.Addr())
	golden := pushAll(t, rc, 200)
	rc.Close() // or Close waits out its drain budget for this client
	closeNode(t, n)
	if _, err := os.Stat(filepath.Join(dir, engine.EngineManifestName)); err != nil {
		t.Fatalf("no engine manifest after Close: %v", err)
	}

	n = start(t, Config{PersistDir: dir})
	if got := n.Engine().Len(); got != golden.Len() {
		t.Fatalf("restored %d elements, want %d", got, golden.Len())
	}
	drainAgainst(t, dial(t, n.Addr()), golden)
}

func TestKillPromoteLosesNoAckedOp(t *testing.T) {
	prim := start(t, Config{ReplSync: true})
	fol := start(t, Config{Follow: prim.Addr(), ReplSync: true, DialRetry: time.Millisecond})
	waitFor(t, "follower attach", func() bool {
		return prim.Repl().Status().Followers == 1 && fol.Ready()
	})
	if fol.Detail()["role"] != "follower" {
		t.Fatalf("standby detail: %v", fol.Detail())
	}

	golden := pushAll(t, dial(t, prim.Addr()), 100)
	prim.Kill()
	fol.Promote()
	if !fol.Ready() || fol.Detail()["role"] != "primary" {
		t.Fatalf("promoted standby not serving: %v", fol.Detail())
	}
	drainAgainst(t, dial(t, fol.Addr()), golden)
}

func TestClusterMember(t *testing.T) {
	lnPrim, lnStandby := listen(t), listen(t)
	m := &cluster.Map{Version: 1, Mode: cluster.ModeRank, RankBits: 16, Nodes: []cluster.Node{
		{ID: 1, Epoch: 1, Start: 0, Addrs: []string{lnPrim.Addr().String(), lnStandby.Addr().String()}},
		{ID: 2, Epoch: 1, Start: 1 << 15, Addrs: []string{"127.0.0.1:1"}}, // never started
	}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// An hour between sweeps: only promotion's kick can spread a map.
	member := Config{ClusterMap: m, ClusterNode: 1, GossipInterval: time.Hour, ReplSync: true}
	primCfg := member
	primCfg.Listener = lnPrim
	prim := start(t, primCfg)

	c, err := wire.Dial(prim.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Do([]wire.Op{
		{Kind: wire.OpPush, Value: 7, Meta: 1},         // node 1's band
		{Kind: wire.OpPush, Value: 1<<15 + 7, Meta: 2}, // node 2's band
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status != wire.StatusOK || res[1].Status != wire.StatusNotOwner {
		t.Fatalf("statuses %v %v, want OK NotOwner", res[0].Status, res[1].Status)
	}
	if res[1].Value != 1 {
		t.Fatalf("NotOwner carries map version %d, want 1", res[1].Value)
	}
	if got := prim.Registry().Snapshot().Counter("bmwd_cluster_not_owner_total"); got != 1 {
		t.Fatalf("bmwd_cluster_not_owner_total = %d, want 1", got)
	}
	if d := prim.Detail(); d["cluster_node"] != uint32(1) || d["cluster_map_version"] != uint64(1) {
		t.Fatalf("detail: %v", d)
	}

	stbyCfg := member
	stbyCfg.Listener, stbyCfg.Follow, stbyCfg.DialRetry = lnStandby, prim.Addr(), time.Millisecond
	stby := start(t, stbyCfg)
	waitFor(t, "standby caught up", stby.Ready)
	stby.Promote() // returns once serving; the promotion hook runs right after
	waitFor(t, "promotion to mint map version 2", func() bool {
		return stby.Cluster().Version() == 2
	})
	if self := stby.Cluster().Current().ByID(1); self.Epoch != 2 {
		t.Fatalf("promotion left epoch %d, want 2", self.Epoch)
	}
	waitFor(t, "gossip kick to reach the old primary", func() bool {
		return prim.Cluster().Version() == 2
	})
}

func TestObsEndpoints(t *testing.T) {
	incDir := t.TempDir()
	n := start(t, Config{HTTPAddr: "127.0.0.1:0", TraceSample: 8,
		SLO: "p99<1ns", IncidentDir: incDir})
	rc := dial(t, n.Addr())
	drainAgainst(t, rc, pushAll(t, rc, 150))
	n.slo.Tick(time.Now()) // the 1s tick loop, now

	code, metrics := get(t, n, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{
		"\nbmwd_repl_lag 0\n",
		"\nbmwd_trace_stage_total_ns{quantile=\"0.99\"} ",
		"\nbmwd_engine_len 0\n",
		"\nbmwd_runtime_goroutines ",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if code, body := get(t, n, "/readyz"); code != http.StatusOK || !strings.Contains(body, `"caught_up":true`) {
		t.Errorf("/readyz: %d %s", code, body)
	}
	var slo obs.SLOStatus
	_, body := get(t, n, "/slo.json")
	if err := json.Unmarshal([]byte(body), &slo); err != nil {
		t.Fatal(err)
	}
	if slo.Worst == obs.SLOOK.String() {
		t.Errorf("p99<1ns still ok after traffic: %s", body)
	}
	_, body = get(t, n, "/flight.json")
	if dump, err := obs.ParseFlightDump([]byte(body)); err != nil || dump.Schema != obs.FlightDumpSchema {
		t.Errorf("/flight.json: schema %q, err %v", dump.Schema, err)
	}
	_, body = get(t, n, "/trace.json")
	if tr, err := obs.ParseTrace([]byte(body)); err != nil || obs.ValidateTrace(tr) != nil || len(tr.TraceEvents) == 0 {
		t.Errorf("/trace.json: %d events, err %v", len(tr.TraceEvents), err)
	}

	bundle, err := n.Capture("sigquit", "test")
	if err != nil || bundle == "" {
		t.Fatalf("forced capture: %q, %v", bundle, err)
	}
	if err := obs.ValidateIncidentBundle(bundle); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(bundle, "slo.json")); err != nil {
		t.Errorf("bundle lacks the SLO status: %v", err)
	}
}

// Backpressure over the wire, through the deployed assembly: on a tree
// of 126 a 256-op frame fills it in one execution, so the next frame's
// pushes meet almost-full and answer StatusBackpressure. A pop is never
// refused: it answers OK, or Empty on an empty engine.
func TestBackpressureOverTheWire(t *testing.T) {
	n := start(t, Config{Engine: engine.Config{Shards: 1, Order: 2, Levels: 6}})
	c, err := wire.Dial(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var mu sync.Mutex
	pushes := map[wire.Status]int{}
	refusedPops := 0
	seen := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return pushes[wire.StatusBackpressure] > 0
	}
	var wg sync.WaitGroup
	deadline := time.Now().Add(10 * time.Second)
	for w := 0; w < 4; w++ { // four frames in flight on one connection
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ops := make([]wire.Op, 256)
			for frame := 0; !seen() && time.Now().Before(deadline); frame++ {
				for i := range ops {
					ops[i] = wire.Op{Kind: wire.OpPop}
					if i%4 != 0 {
						ops[i] = wire.Op{Kind: wire.OpPush, Value: uint64(i), Meta: uint64(w<<24 | frame<<8 | i)}
					}
				}
				res, err := c.Do(ops)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				for i, r := range res {
					if ops[i].Kind == wire.OpPush {
						pushes[r.Status]++
					} else if r.Status != wire.StatusOK && r.Status != wire.StatusEmpty {
						refusedPops++
					}
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if !seen() {
		t.Fatalf("push statuses %v: want Backpressure", pushes)
	}
	if refusedPops != 0 {
		t.Fatalf("%d pop(s) refused: admission refuses pushes only", refusedPops)
	}
}

// A follower whose geometry the primary refuses hits repl_fatal inside
// replic.Attach's goroutine, before Start has finished: the capturer
// must already exist, and the bundle must not be lost.
func TestBootTimeReplFatalLeavesOneBundle(t *testing.T) {
	prim := start(t, Config{})
	other := geom
	other.Levels++
	incDir := t.TempDir()
	fol := start(t, Config{Engine: other, Follow: prim.Addr(),
		IncidentDir: incDir, IncidentMinInterval: time.Millisecond})
	waitFor(t, "degraded follower", func() bool { return fol.Detail()["degraded"] == true })
	waitFor(t, "repl_fatal bundle", func() bool {
		bs, _ := obs.ListIncidentBundles(incDir)
		return len(bs) > 0
	})
	fol.Kill() // waits for the capture goroutine: no half-written bundle below
	if got := bundlesByTrigger(t, incDir)["repl_fatal"]; got != 1 {
		t.Fatalf("%d repl_fatal bundle(s), want exactly 1 (%v)", got, bundlesByTrigger(t, incDir))
	}
}

// Triggers raised just before a stop still get their bundles, and one
// that finds the queue full is counted rather than silently lost.
func TestTriggersSurviveStopAndDropsAreCounted(t *testing.T) {
	incDir := t.TempDir()
	n := start(t, Config{IncidentDir: incDir})
	n.flight.Record(obs.FlightReady, 0, 1, 0, 0) // a bundle of an empty flight ring does not validate
	const raised = 5
	for i := 0; i < raised; i++ {
		n.trigger("sigquit", "forced: rate limiting does not thin these")
	}
	n.Kill()
	if got := bundlesByTrigger(t, incDir)["sigquit"]; got != raised {
		t.Fatalf("%d bundle(s) for %d triggers raised before Kill", got, raised)
	}
	// Nothing drains a stopped node's queue.
	for i := 0; i < triggerBacklog+2; i++ {
		n.trigger("overload", "after the stop")
	}
	if got := n.Registry().Snapshot().Counter("bmwd_incident_dropped_total"); got != 2 {
		t.Fatalf("bmwd_incident_dropped_total = %d, want 2", got)
	}
}

func TestReadyFollowsWALPoison(t *testing.T) {
	n := start(t, Config{PersistDir: t.TempDir(), HTTPAddr: "127.0.0.1:0"})
	if !n.Ready() {
		t.Fatalf("fresh node not ready: %v", n.Detail())
	}
	// The gauges the shards' checkpoint-time WALs raise when a permanent
	// write failure sticks, under whatever name the engine hands them
	// (engine's TestWALPoisonedReadsTheCheckpointGauges ties the two).
	var gauges []string
	for name := range n.Registry().Snapshot().Gauges {
		if strings.HasSuffix(name, "_wal_poisoned") {
			gauges = append(gauges, name)
		}
	}
	if len(gauges) != geom.Shards {
		t.Fatalf("poisoned-WAL gauges %v, want one per shard", gauges)
	}
	n.Registry().Gauge(gauges[0]).Set(1)
	if n.Ready() {
		t.Fatal("ready on a poisoned WAL")
	}
	code, body := get(t, n, "/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"persist_ok":false`) {
		t.Fatalf("/readyz: %d %s", code, body)
	}
}

func TestReadyFollowsScrubFinding(t *testing.T) {
	dir := t.TempDir()
	n := start(t, Config{PersistDir: dir})
	rc := dial(t, n.Addr())
	pushAll(t, rc, 50)
	rc.Close()
	closeNode(t, n)

	incDir := t.TempDir()
	n = start(t, Config{PersistDir: dir, ScrubInterval: 5 * time.Millisecond,
		HTTPAddr: "127.0.0.1:0", IncidentDir: incDir})
	if !n.Ready() {
		t.Fatalf("restored node not ready: %v", n.Detail())
	}
	snaps, err := filepath.Glob(filepath.Join(engine.ShardDir(dir, 0), "*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot to rot: %v %v", snaps, err)
	}
	b, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(snaps[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "scrubber finding", func() bool { return !n.Ready() })
	code, body := get(t, n, "/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"persist_ok":false`) {
		t.Fatalf("/readyz: %d %s", code, body)
	}
	waitFor(t, "integrity bundle", func() bool {
		bs, _ := obs.ListIncidentBundles(incDir)
		return len(bs) > 0
	})
	n.Kill()
	if got := bundlesByTrigger(t, incDir)["integrity"]; got != 1 {
		t.Fatalf("%d integrity bundle(s), want 1", got)
	}
}
