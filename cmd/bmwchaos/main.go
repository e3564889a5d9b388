// bmwchaos is the fault-tolerance acceptance harness: it boots an
// in-process primary/standby pair of bmwd nodes (internal/node), routes a
// client through a flaky TCP proxy, injects connection faults (resets,
// stalls, partial writes, byte corruption the wire CRC must catch) and
// primary kill-and-promote cycles, and checks every acknowledged
// operation against a golden reference queue: zero acknowledged-op
// loss, zero duplicated applies, promotion at the replicated tip, and
// bounded failover time.
//
// The workload is sequential single-op batches, so the sharded engine
// is sequentially consistent with the reference heap: an acked push is
// visible to the next pop, and every acked pop must return exactly the
// reference PopMin value. Any divergence — lost ack, double apply,
// corruption slipping through — breaks the lockstep and fails the run.
//
// It exits 0 only if every check passes, and always writes a
// bmwchaos/v1 JSON evidence file into -evidence.
//
// Examples:
//
//	bmwchaos                          # 25 faults, 5 kill/promote cycles
//	bmwchaos -faults 50 -kills 10 -evidence /tmp/chaos
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/refpq"
	"repro/internal/wire"
)

// Fault kinds the proxy can arm. One armed fault is consumed by the
// next matching traffic chunk.
const (
	faultNone    int32 = iota
	faultReset         // swallow the chunk, reset both sides
	faultStall         // hold the chunk for stallDur, then deliver
	faultPartial       // deliver half the chunk, then reset
	faultCorrupt       // flip one byte mid-chunk (CRC must catch it)
)

var faultNames = map[int32]string{
	faultReset: "reset", faultStall: "stall",
	faultPartial: "partial_write", faultCorrupt: "corrupt",
}

// chaosProxy relays TCP to a switchable upstream and applies the armed
// fault to the next chunk. Corruption alternates direction (responses
// vs requests) per injection so both sides' CRC checking is exercised.
type chaosProxy struct {
	ln         net.Listener
	upstream   atomic.Value // string
	armed      atomic.Int32
	corruptUp  atomic.Bool
	consumed   atomic.Uint64
	stallDur   time.Duration
	totalConns atomic.Uint64
}

func startProxy(upstream string, stallDur time.Duration) (*chaosProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &chaosProxy{ln: ln, stallDur: stallDur}
	p.upstream.Store(upstream)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			p.totalConns.Add(1)
			up, err := net.Dial("tcp", p.upstream.Load().(string))
			if err != nil {
				c.Close()
				continue
			}
			go p.relay(c, up, true)  // client → server
			go p.relay(up, c, false) // server → client
		}
	}()
	return p, nil
}

// relay copies src → dst, consuming an armed fault when this direction
// matches it: corruption targets the armed direction; reset, stall,
// and partial writes target the response path.
func (p *chaosProxy) relay(src, dst net.Conn, toServer bool) {
	defer src.Close()
	defer dst.Close()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if f := p.armed.Load(); f != faultNone && p.applies(f, toServer) && p.armed.CompareAndSwap(f, faultNone) {
				p.consumed.Add(1)
				switch f {
				case faultReset:
					return
				case faultStall:
					time.Sleep(p.stallDur)
				case faultPartial:
					if n >= 2 {
						dst.Write(buf[:n/2])
					}
					return
				case faultCorrupt:
					buf[n/2] ^= 0x45
				}
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

func (p *chaosProxy) applies(f int32, toServer bool) bool {
	if f == faultCorrupt {
		return toServer == p.corruptUp.Load()
	}
	return !toServer // reset/stall/partial hit the response path
}

// arm readies one fault for the next matching chunk.
func (p *chaosProxy) arm(f int32, corruptUpstream bool) {
	p.corruptUp.Store(corruptUpstream)
	p.armed.Store(f)
}

// nodeSeq numbers chaos nodes so each gets its own incident directory.
var nodeSeq atomic.Uint64

// start boots one in-process bmwd (internal/node) on a loopback port, as
// a sync-replicating primary or, with follow set, its hot standby.
// Incident rate limiting is effectively off (1ms): the harness kills
// primaries back to back and asserts a bundle per kill.
func (h *harness) start(follow string) (*node.Node, error) {
	return node.Start(node.Config{
		Engine:              h.geom,
		Log:                 h.log,
		Follow:              follow,
		ReplSync:            true,
		SyncTimeout:         10 * time.Second,
		DialRetry:           5 * time.Millisecond,
		IncidentDir:         filepath.Join(h.incRoot, fmt.Sprintf("node-%d", nodeSeq.Add(1))),
		IncidentMinInterval: time.Millisecond,
		IncidentKeep:        64, // repeated captures must not prune a kill's bundle before the audit
	})
}

// evidence is the bmwchaos/v1 result document.
type evidence struct {
	Schema           string           `json:"schema"`
	Result           string           `json:"result"`
	Errors           []string         `json:"errors,omitempty"`
	Faults           map[string]int   `json:"faults"`
	KillCycles       int              `json:"kill_cycles"`
	FailoverMs       []float64        `json:"failover_ms"`
	AckedPushes      uint64           `json:"acked_pushes"`
	AckedPops        uint64           `json:"acked_pops"`
	FinalDrain       int              `json:"final_drain"`
	ClientStats      map[string]int64 `json:"client_stats"`
	ProxyConns       uint64           `json:"proxy_conns"`
	DurationMs       float64          `json:"duration_ms"`
	PromotedAtTip    []uint64         `json:"promoted_at_tip"`
	IncidentBundles  int              `json:"incident_bundles"`
	BundlesByTrigger map[string]int   `json:"incident_bundles_by_trigger,omitempty"`
}

// harness owns the run's moving parts and the golden lockstep state.
type harness struct {
	geom    engine.Config
	rng     *rand.Rand
	proxy   *chaosProxy
	rc      *wire.ResilientClient
	golden  *refpq.Queue
	prim    *node.Node
	standby *node.Node
	ev      *evidence
	incRoot string
	log     slog.Handler // nil unless -v
	pushes  uint64
	pops    uint64
}

func (h *harness) logf(format string, args ...any) {
	if h.log != nil {
		fmt.Fprintf(os.Stderr, "bmwchaos: "+format+"\n", args...)
	}
}

// oneOp issues one op through the proxy and applies its acked outcome
// to the golden queue, failing on any divergence.
func (h *harness) oneOp() error {
	push := h.golden.Len() == 0 || h.rng.Float64() < 0.55
	var op wire.Op
	if push {
		v := h.rng.Uint64() >> 34 // 30-bit rank
		op = wire.Op{Kind: wire.OpPush, Value: v, Meta: h.pushes}
	} else {
		op = wire.Op{Kind: wire.OpPop}
	}
	res, err := h.rc.Do([]wire.Op{op})
	if err != nil {
		return fmt.Errorf("op failed permanently: %w", err)
	}
	r := res[0]
	switch {
	case push && r.Status == wire.StatusOK:
		h.golden.Push(refpq.Entry{Value: op.Value, Meta: op.Meta})
		h.pushes++
	case push: // Full/Backpressure/Overloaded: acked as not-applied
		if r.Status != wire.StatusFull && r.Status != wire.StatusBackpressure && r.Status != wire.StatusOverloaded {
			return fmt.Errorf("push acked with status %v", r.Status)
		}
	case r.Status == wire.StatusOK:
		if h.golden.Len() == 0 {
			return fmt.Errorf("pop returned value %d from an empty reference queue — duplicated apply", r.Value)
		}
		want := h.golden.PopMin()
		if r.Value != want.Value {
			return fmt.Errorf("pop returned value %d, reference says %d — acked-op divergence", r.Value, want.Value)
		}
		h.pops++
	case r.Status == wire.StatusEmpty:
		if h.golden.Len() != 0 {
			return fmt.Errorf("pop says empty, reference holds %d — acked-op loss", h.golden.Len())
		}
	default:
		return fmt.Errorf("pop acked with status %v", r.Status)
	}
	return nil
}

// faultPhase injects nFaults connection faults, cycling kinds, with
// lockstep-verified traffic around each.
func (h *harness) faultPhase(nFaults int) error {
	kinds := []int32{faultReset, faultStall, faultPartial, faultCorrupt}
	for i := 0; i < nFaults; i++ {
		kind := kinds[i%len(kinds)]
		h.proxy.arm(kind, kind == faultCorrupt && i%8 >= 4)
		before := h.proxy.consumed.Load()
		deadline := time.Now().Add(30 * time.Second)
		for h.proxy.consumed.Load() == before {
			if time.Now().After(deadline) {
				return fmt.Errorf("fault %d (%s) never consumed", i, faultNames[kind])
			}
			if err := h.oneOp(); err != nil {
				return fmt.Errorf("during fault %d (%s): %w", i, faultNames[kind], err)
			}
		}
		h.ev.Faults[faultNames[kind]]++
		// A few verified ops after the fault to prove recovery.
		for j := 0; j < 5; j++ {
			if err := h.oneOp(); err != nil {
				return fmt.Errorf("recovering from fault %d (%s): %w", i, faultNames[kind], err)
			}
		}
		h.logf("fault %d/%d (%s) injected and survived", i+1, nFaults, faultNames[kind])
	}
	return nil
}

// waitReplicated blocks until the standby has acknowledged the
// primary's full log.
func (h *harness) waitReplicated() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		if tip := h.prim.Repl().LogSeq(); h.prim.Repl().AckSeq() == tip && h.standby.Repl().Ready() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("standby never caught up: ack %d, tip %d", h.prim.Repl().AckSeq(), h.prim.Repl().LogSeq())
		}
		time.Sleep(time.Millisecond)
	}
}

// killCycle kills the primary, promotes the standby, measures
// kill-to-first-success, and brings up a fresh standby.
func (h *harness) killCycle(cycle int, budget time.Duration) error {
	// Some traffic, then make sure the standby holds everything acked.
	for i := 0; i < 50; i++ {
		if err := h.oneOp(); err != nil {
			return fmt.Errorf("cycle %d pre-kill: %w", cycle, err)
		}
	}
	if err := h.waitReplicated(); err != nil {
		return err
	}
	tip := h.prim.Repl().LogSeq()

	h.logf("cycle %d: killing primary %s at log tip %d", cycle, h.prim.Addr(), tip)
	// The kill bundle: captured synchronously on the victim before
	// teardown, the way a production bmwd's SIGQUIT/shutdown hook
	// would freeze its state.
	if _, err := h.prim.Capture("kill", fmt.Sprintf("cycle %d: primary killed at log tip %d", cycle, tip)); err != nil {
		return fmt.Errorf("cycle %d: kill bundle: %w", cycle, err)
	}
	h.prim.Kill()
	t0 := time.Now()
	h.standby.Promote()
	if got := h.standby.Repl().LogSeq(); got != tip {
		return fmt.Errorf("cycle %d: promoted at log seq %d, want replicated tip %d", cycle, got, tip)
	}
	h.ev.PromotedAtTip = append(h.ev.PromotedAtTip, tip)
	h.proxy.upstream.Store(h.standby.Addr())
	h.prim = h.standby

	// First post-kill op: the client must reconnect through the proxy
	// to the promoted standby within the failover budget.
	if err := h.oneOp(); err != nil {
		return fmt.Errorf("cycle %d post-promotion: %w", cycle, err)
	}
	failover := time.Since(t0)
	h.ev.FailoverMs = append(h.ev.FailoverMs, float64(failover.Microseconds())/1000)
	if failover > budget {
		return fmt.Errorf("cycle %d: failover took %v, budget %v", cycle, failover, budget)
	}
	h.logf("cycle %d: failover in %v", cycle, failover)

	fresh, err := h.start(h.prim.Addr())
	if err != nil {
		return fmt.Errorf("cycle %d: fresh standby: %w", cycle, err)
	}
	h.standby = fresh
	if err := h.waitReplicated(); err != nil {
		return fmt.Errorf("cycle %d: fresh standby catch-up: %w", cycle, err)
	}
	h.ev.KillCycles++
	return nil
}

// finalDrain pops everything and checks the full sequence against the
// reference queue.
func (h *harness) finalDrain() error {
	n := 0
	for {
		res, err := h.rc.Do([]wire.Op{{Kind: wire.OpPop}})
		if err != nil {
			return fmt.Errorf("final drain: %w", err)
		}
		if res[0].Status == wire.StatusEmpty {
			break
		}
		if res[0].Status != wire.StatusOK {
			return fmt.Errorf("final drain status %v", res[0].Status)
		}
		if h.golden.Len() == 0 {
			return fmt.Errorf("final drain returned value %d beyond the reference — duplicated apply", res[0].Value)
		}
		if want := h.golden.PopMin(); res[0].Value != want.Value {
			return fmt.Errorf("final drain value %d, reference says %d", res[0].Value, want.Value)
		}
		n++
	}
	if h.golden.Len() != 0 {
		return fmt.Errorf("engine empty but reference holds %d elements — acked-op loss", h.golden.Len())
	}
	h.ev.FinalDrain = n
	return nil
}

func main() {
	var (
		faults   = flag.Int("faults", 25, "connection faults to inject")
		kills    = flag.Int("kills", 5, "primary kill-and-promote cycles")
		shards   = flag.Int("shards", 2, "engine shards per node")
		levels   = flag.Int("l", 10, "tree levels (capacity)")
		stall    = flag.Duration("stall", 250*time.Millisecond, "stall fault hold time")
		budget   = flag.Duration("failover-budget", 5*time.Second, "max allowed kill-to-first-success time")
		seed     = flag.Int64("seed", 1, "workload and fault seed")
		evDir    = flag.String("evidence", "chaos-evidence", "directory for the bmwchaos/v1 JSON evidence file")
		verbose  = flag.Bool("v", false, "log each fault and cycle")
		validate = flag.String("validate-bundles", "", "validate every incident bundle under this directory and exit (no chaos run)")
	)
	flag.Parse()

	if *validate != "" {
		n, err := validateBundleDir(*validate)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("bmwchaos: %d incident bundle(s) under %s valid\n", n, *validate)
		return
	}

	geom := engine.Config{Shards: *shards, Order: 2, Levels: *levels}

	ev := &evidence{Schema: "bmwchaos/v1", Faults: map[string]int{}}
	incRoot := filepath.Join(*evDir, "incidents")
	if err := os.MkdirAll(incRoot, 0o755); err != nil {
		fatalf("incident dir: %v", err)
	}
	start := time.Now()
	runErr := run(geom, *faults, *kills, *stall, *budget, *seed, *verbose, incRoot, ev)
	ev.DurationMs = float64(time.Since(start).Microseconds()) / 1000
	if err := auditBundles(incRoot, *kills, ev); err != nil && runErr == nil {
		runErr = err
	} else if err != nil {
		ev.Errors = append(ev.Errors, err.Error())
	}
	if runErr != nil {
		ev.Result = "fail"
		ev.Errors = append(ev.Errors, runErr.Error())
	} else {
		ev.Result = "pass"
	}

	if err := os.MkdirAll(*evDir, 0o755); err != nil {
		fatalf("evidence dir: %v", err)
	}
	path := filepath.Join(*evDir, "bmwchaos.json")
	b, _ := json.MarshalIndent(ev, "", "  ")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fatalf("write evidence: %v", err)
	}
	fmt.Printf("bmwchaos: %s — %d fault(s), %d kill cycle(s), %d acked pushes, %d acked pops, %d incident bundle(s), evidence in %s\n",
		ev.Result, sumFaults(ev), ev.KillCycles,
		ev.AckedPushes, ev.AckedPops, ev.IncidentBundles, path)
	if runErr != nil {
		fatalf("%v", runErr)
	}
}

// validateBundleDir checks every incident bundle directly under dir
// (the standalone `-validate-bundles` mode CI points at a daemon's
// -incident-dir), requiring at least one valid bundle.
func validateBundleDir(dir string) (int, error) {
	bundles, err := obs.ListIncidentBundles(dir)
	if err != nil {
		return 0, err
	}
	if len(bundles) == 0 {
		return 0, fmt.Errorf("no incident bundles under %s", dir)
	}
	for _, b := range bundles {
		if err := obs.ValidateIncidentBundle(b); err != nil {
			return 0, err
		}
	}
	return len(bundles), nil
}

// auditBundles is the post-run incident acceptance check: every bundle
// under incRoot must validate (manifest checksums, required artifacts,
// parseable non-empty flight record), and the trigger tally must show
// at least one bundle per kill.
func auditBundles(incRoot string, kills int, ev *evidence) error {
	ev.BundlesByTrigger = map[string]int{}
	nodes, err := os.ReadDir(incRoot)
	if err != nil {
		return fmt.Errorf("incident audit: %w", err)
	}
	for _, d := range nodes {
		if !d.IsDir() {
			continue
		}
		nodeDir := filepath.Join(incRoot, d.Name())
		bundles, err := obs.ListIncidentBundles(nodeDir)
		if err != nil {
			return fmt.Errorf("incident audit: list %s: %w", nodeDir, err)
		}
		for _, dir := range bundles { // ListIncidentBundles returns full paths
			if err := obs.ValidateIncidentBundle(dir); err != nil {
				return fmt.Errorf("incident audit: invalid bundle %s: %w", dir, err)
			}
			raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
			if err != nil {
				return fmt.Errorf("incident audit: %w", err)
			}
			man, err := obs.ParseIncidentManifest(raw)
			if err != nil {
				return fmt.Errorf("incident audit: manifest %s: %w", dir, err)
			}
			ev.IncidentBundles++
			ev.BundlesByTrigger[man.Trigger]++
		}
	}
	if got := ev.BundlesByTrigger["kill"]; got < kills {
		return fmt.Errorf("incident audit: %d kill bundle(s) for %d kill cycle(s)", got, kills)
	}
	return nil
}

func sumFaults(ev *evidence) int {
	n := 0
	for _, c := range ev.Faults {
		n += c
	}
	return n
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bmwchaos: "+format+"\n", args...)
	os.Exit(1)
}

func run(geom engine.Config, faults, kills int, stall, budget time.Duration, seed int64, verbose bool, incRoot string, ev *evidence) error {
	h := &harness{
		geom:    geom,
		rng:     rand.New(rand.NewSource(seed)),
		golden:  refpq.New(),
		ev:      ev,
		incRoot: incRoot,
	}
	if verbose {
		h.log = slog.NewTextHandler(os.Stderr, nil)
	}

	prim, err := h.start("")
	if err != nil {
		return err
	}
	h.prim = prim
	defer func() { h.prim.Kill() }()
	standby, err := h.start(prim.Addr())
	if err != nil {
		return err
	}
	h.standby = standby
	defer func() { h.standby.Kill() }()

	proxy, err := startProxy(prim.Addr(), stall)
	if err != nil {
		return err
	}
	h.proxy = proxy
	defer proxy.ln.Close()

	rc, err := wire.NewResilientClient(wire.ResilientOptions{
		Addrs:          []string{proxy.ln.Addr().String()},
		RequestTimeout: 2 * time.Second,
		BaseDelay:      2 * time.Millisecond,
		MaxDelay:       100 * time.Millisecond,
		Conn: wire.ClientOptions{
			ReadTimeout:  2 * time.Second,
			WriteTimeout: 2 * time.Second,
		},
	})
	if err != nil {
		return err
	}
	h.rc = rc
	defer rc.Close()
	defer func() {
		s := rc.Stats()
		ev.ClientStats = map[string]int64{
			"retries": int64(s.Retries), "timeouts": int64(s.Timeouts),
			"reconnects": int64(s.Reconnects), "failovers": int64(s.Failovers),
			"dedup_misses": int64(s.DedupMisses),
		}
		ev.ProxyConns = h.proxy.totalConns.Load()
		ev.AckedPushes = h.pushes
		ev.AckedPops = h.pops
	}()

	if err := h.waitReplicated(); err != nil {
		return err
	}
	// Warm-up traffic in lockstep before any fault.
	for i := 0; i < 100; i++ {
		if err := h.oneOp(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}

	if err := h.faultPhase(faults); err != nil {
		return err
	}
	for c := 1; c <= kills; c++ {
		if err := h.killCycle(c, budget); err != nil {
			return err
		}
	}
	if err := h.waitReplicated(); err != nil {
		return err
	}
	if err := h.finalDrain(); err != nil {
		return err
	}
	if s := rc.Stats(); s.DedupMisses > 0 {
		return fmt.Errorf("%d dedup misses — indeterminate acked-op outcomes", s.DedupMisses)
	}
	return nil
}
