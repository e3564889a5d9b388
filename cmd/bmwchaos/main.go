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
	"repro/internal/harness"
	"repro/internal/node"
	"repro/internal/obs"
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
func (s *scenario) start(follow string) (*node.Node, error) {
	return node.Start(node.Config{
		Engine:              s.cfg.geom,
		Log:                 s.log,
		Follow:              follow,
		ReplSync:            true,
		SyncTimeout:         10 * time.Second,
		DialRetry:           5 * time.Millisecond,
		IncidentDir:         filepath.Join(s.incRoot, fmt.Sprintf("node-%d", nodeSeq.Add(1))),
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

// config is one run's flags.
type config struct {
	faults, kills int
	geom          engine.Config
	stall, budget time.Duration
	seed          int64
	evDir         string // incident bundles go under evDir/incidents
	verbose       bool
}

// scenario owns the run's moving parts and the golden lockstep.
type scenario struct {
	cfg     config
	rng     *rand.Rand
	proxy   *chaosProxy
	rc      *wire.ResilientClient
	golden  *harness.Lockstep
	pair    harness.Pair
	ev      *evidence
	incRoot string
	log     slog.Handler // nil unless -v
}

func (s *scenario) logf(format string, args ...any) {
	if s.log != nil {
		fmt.Fprintf(os.Stderr, "bmwchaos: "+format+"\n", args...)
	}
}

// oneOp issues one op through the proxy and applies its acked outcome
// to the golden lockstep, failing on any divergence.
func (s *scenario) oneOp() error {
	op := wire.Op{Kind: wire.OpPop}
	if s.golden.Len() == 0 || s.rng.Float64() < 0.55 {
		op = wire.Op{Kind: wire.OpPush, Value: s.rng.Uint64() >> 34, Meta: s.golden.Pushes} // 30-bit rank
	}
	res, err := s.rc.Do([]wire.Op{op})
	if err != nil {
		return fmt.Errorf("op failed permanently: %w", err)
	}
	if op.Kind == wire.OpPush {
		return s.golden.Push(op.Value, op.Meta, res[0].Status)
	}
	return s.golden.Pop(res[0])
}

// faultPhase injects nFaults connection faults, cycling kinds, with
// lockstep-verified traffic around each.
func (s *scenario) faultPhase(nFaults int) error {
	kinds := []int32{faultReset, faultStall, faultPartial, faultCorrupt}
	for i := 0; i < nFaults; i++ {
		kind := kinds[i%len(kinds)]
		s.proxy.arm(kind, kind == faultCorrupt && i%8 >= 4)
		before := s.proxy.consumed.Load()
		deadline := time.Now().Add(30 * time.Second)
		for s.proxy.consumed.Load() == before {
			if time.Now().After(deadline) {
				return fmt.Errorf("fault %d (%s) never consumed", i, faultNames[kind])
			}
			if err := s.oneOp(); err != nil {
				return fmt.Errorf("during fault %d (%s): %w", i, faultNames[kind], err)
			}
		}
		s.ev.Faults[faultNames[kind]]++
		// A few verified ops after the fault to prove recovery.
		for j := 0; j < 5; j++ {
			if err := s.oneOp(); err != nil {
				return fmt.Errorf("recovering from fault %d (%s): %w", i, faultNames[kind], err)
			}
		}
		s.logf("fault %d/%d (%s) injected and survived", i+1, nFaults, faultNames[kind])
	}
	return nil
}

// killCycle kills the primary, promotes the standby at the replicated
// tip, measures kill-to-first-success, and brings up a fresh standby.
func (s *scenario) killCycle(cycle int) error {
	for i := 0; i < 50; i++ {
		if err := s.oneOp(); err != nil {
			return fmt.Errorf("cycle %d pre-kill: %w", cycle, err)
		}
	}
	prim := s.pair.Primary
	tip := prim.Repl().LogSeq()
	s.logf("cycle %d: killing primary %s at log tip %d", cycle, prim.Addr(), tip)
	// The kill bundle: captured synchronously on the victim before
	// teardown, the way a production bmwd's SIGQUIT/shutdown hook
	// would freeze its state.
	if _, err := prim.Capture("kill", fmt.Sprintf("cycle %d: primary killed at log tip %d", cycle, tip)); err != nil {
		return fmt.Errorf("cycle %d: kill bundle: %w", cycle, err)
	}
	tip, killed, err := s.pair.Failover()
	if err != nil {
		return fmt.Errorf("cycle %d: %w", cycle, err)
	}
	s.ev.PromotedAtTip = append(s.ev.PromotedAtTip, tip)
	s.proxy.upstream.Store(s.pair.Primary.Addr())

	// First post-kill op: the client must reconnect through the proxy
	// to the promoted standby within the failover budget.
	if err := s.oneOp(); err != nil {
		return fmt.Errorf("cycle %d post-promotion: %w", cycle, err)
	}
	failover := time.Since(killed)
	s.ev.FailoverMs = append(s.ev.FailoverMs, float64(failover.Microseconds())/1000)
	if failover > s.cfg.budget {
		return fmt.Errorf("cycle %d: failover took %v, budget %v", cycle, failover, s.cfg.budget)
	}
	s.logf("cycle %d: failover in %v", cycle, failover)

	if s.pair.Standby, err = s.start(s.pair.Primary.Addr()); err != nil {
		return fmt.Errorf("cycle %d: fresh standby: %w", cycle, err)
	}
	if err := s.pair.WaitReplicated(); err != nil {
		return fmt.Errorf("cycle %d: fresh standby catch-up: %w", cycle, err)
	}
	s.ev.KillCycles++
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

	ev, runErr := run(config{
		faults: *faults, kills: *kills,
		geom:  engine.Config{Shards: *shards, Order: 2, Levels: *levels},
		stall: *stall, budget: *budget, seed: *seed, evDir: *evDir, verbose: *verbose,
	})
	path, err := harness.WriteEvidence(*evDir, "bmwchaos.json", ev)
	if err != nil {
		fatalf("%v", err)
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

// run plays the scenario, audits the incident bundles and returns the
// evidence, whose Result is "pass" exactly when the error is nil.
func run(cfg config) (*evidence, error) {
	ev := &evidence{Schema: "bmwchaos/v1", Faults: map[string]int{}}
	s := &scenario{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.seed)),
		golden:  harness.NewLockstep(),
		ev:      ev,
		incRoot: filepath.Join(cfg.evDir, "incidents"),
	}
	if cfg.verbose {
		s.log = slog.NewTextHandler(os.Stderr, nil)
	}
	start := time.Now()
	runErr := s.run()
	ev.DurationMs = float64(time.Since(start).Microseconds()) / 1000
	if err := auditBundles(s.incRoot, cfg.kills, ev); err != nil && runErr == nil {
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
	return ev, runErr
}

func (s *scenario) run() error {
	if err := os.MkdirAll(s.incRoot, 0o755); err != nil {
		return fmt.Errorf("incident dir: %w", err)
	}
	defer s.pair.Kill()
	prim, err := s.start("")
	if err != nil {
		return err
	}
	s.pair.Primary = prim
	if s.pair.Standby, err = s.start(prim.Addr()); err != nil {
		return err
	}

	proxy, err := startProxy(prim.Addr(), s.cfg.stall)
	if err != nil {
		return err
	}
	s.proxy = proxy
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
	s.rc = rc
	defer rc.Close()
	defer func() {
		st := rc.Stats()
		s.ev.ClientStats = map[string]int64{
			"retries": int64(st.Retries), "timeouts": int64(st.Timeouts),
			"reconnects": int64(st.Reconnects), "failovers": int64(st.Failovers),
			"dedup_misses": int64(st.DedupMisses),
		}
		s.ev.ProxyConns = proxy.totalConns.Load()
		s.ev.AckedPushes = s.golden.Pushes
		s.ev.AckedPops = s.golden.Pops
	}()

	if err := s.pair.WaitReplicated(); err != nil {
		return err
	}
	// Warm-up traffic in lockstep before any fault.
	for i := 0; i < 100; i++ {
		if err := s.oneOp(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}

	if err := s.faultPhase(s.cfg.faults); err != nil {
		return err
	}
	for c := 1; c <= s.cfg.kills; c++ {
		if err := s.killCycle(c); err != nil {
			return err
		}
	}
	if err := s.pair.WaitReplicated(); err != nil {
		return err
	}
	n, err := s.golden.Drain(func() (wire.Result, error) {
		res, err := rc.Do([]wire.Op{{Kind: wire.OpPop}})
		if err != nil {
			return wire.Result{}, err
		}
		return res[0], nil
	})
	s.ev.FinalDrain = n
	if err != nil {
		return err
	}
	if st := rc.Stats(); st.DedupMisses > 0 {
		return fmt.Errorf("%d dedup misses — indeterminate acked-op outcomes", st.DedupMisses)
	}
	return nil
}
