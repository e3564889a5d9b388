// bmwrot is the bit-rot acceptance harness for the durable-state
// integrity subsystem: it builds a primary/follower pair of
// WAL-bearing checkpoint fan-outs from one deterministic workload,
// injects targeted corruptions — WAL record bodies, record headers,
// chain-point seals, snapshot chunks, manifest fields, whole-file
// truncations, cross-shard file swaps — into one node at a time, and
// demands three things of every trial:
//
//  1. detection: the integrity walk (engine-root binding plus
//     persist.VerifyDir per shard) localises the damage, with the
//     expected corruption class — zero undetected escapes;
//  2. repair: anti-entropy repair over real TReplFetch/TReplChunk wire
//     frames against the peer brings every file back bit-identical to
//     the pristine state;
//  3. equivalence: the repaired checkpoint restores and drains exactly
//     the golden sequence a refpq reference mirror predicts.
//
// It exits 0 only if every trial passes, and always writes a bmwrot/v1
// JSON evidence file into -evidence.
//
// Examples:
//
//	bmwrot                       # 25 corruptions over a 2-shard pair
//	bmwrot -corruptions 50 -seed 7 -evidence /tmp/rot
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/refpq"
	"repro/internal/replic"
	"repro/internal/wire"
)

// Harness geometry. Small chain and chunk intervals keep every
// corruption class reachable in a modest workload: multiple seals in
// the WAL, multiple chunks in the snapshot.
const (
	chainEvery = 16
	chunkSize  = 512
	treeOrder  = 2
	treeLevels = 6
)

// Corruption classes the injector cycles through.
const (
	classWALBody    = "wal-body"
	classWALHeader  = "wal-header"
	classWALChain   = "wal-chain"
	classSnapChunk  = "snap-chunk"
	classManifest   = "manifest-field"
	classTruncation = "truncation"
	classSwap       = "swap"
)

var classes = []string{
	classWALBody, classWALHeader, classWALChain, classSnapChunk,
	classManifest, classTruncation, classSwap,
}

type trialEvidence struct {
	ID         int      `json:"id"`
	Node       string   `json:"node"`
	Class      string   `json:"class"`
	Target     string   `json:"target"`
	Expected   []string `json:"expected_classes"`
	DetectedAs []string `json:"detected_as"`
	Detected   bool     `json:"detected"`
	Classified bool     `json:"classified"`
	Repaired   bool     `json:"repaired"`
	Identical  bool     `json:"bit_identical"`
	DrainOK    bool     `json:"drain_ok"`
	Files      int      `json:"files_fetched"`
	Bytes      int64    `json:"bytes_fetched"`
	Err        string   `json:"error,omitempty"`
}

type evidence struct {
	Schema      string          `json:"schema"`
	Seed        int64           `json:"seed"`
	Shards      int             `json:"shards"`
	Ops         int             `json:"ops_per_shard"`
	Corruptions int             `json:"corruptions"`
	ByClass     map[string]int  `json:"by_class"`
	Escapes     int             `json:"undetected_escapes"`
	Failures    int             `json:"failures"`
	Trials      []trialEvidence `json:"trials"`
	Pass        bool            `json:"pass"`
}

func main() {
	var (
		corruptions = flag.Int("corruptions", 25, "corruption trials to run")
		shards      = flag.Int("shards", 2, "shards per node (min 2, for swap trials)")
		ops         = flag.Int("ops", 400, "workload records per shard")
		seed        = flag.Int64("seed", 1, "workload and injection seed")
		evDir       = flag.String("evidence", "rot-evidence", "evidence output directory")
		verbose     = flag.Bool("v", false, "log each trial")
	)
	flag.Parse()
	if *shards < 2 {
		fmt.Fprintln(os.Stderr, "bmwrot: -shards must be at least 2")
		os.Exit(2)
	}
	if err := run(*corruptions, *shards, *ops, *seed, *evDir, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "bmwrot:", err)
		os.Exit(1)
	}
}

func run(corruptions, shards, ops int, seed int64, evDir string, verbose bool) error {
	base, err := os.MkdirTemp("", "bmwrot-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	// One deterministic workload builds three identical fan-outs: the
	// pair under test plus a pristine reference for bit-identity checks.
	nodes := map[string]string{
		"primary":  filepath.Join(base, "primary"),
		"follower": filepath.Join(base, "follower"),
	}
	pristine := filepath.Join(base, "pristine")
	golden, err := buildNode(pristine, shards, ops, seed)
	if err != nil {
		return fmt.Errorf("build pristine: %w", err)
	}
	for name, dir := range nodes {
		if _, err := buildNode(dir, shards, ops, seed); err != nil {
			return fmt.Errorf("build %s: %w", name, err)
		}
	}

	// Each node serves anti-entropy fetches over real wire frames.
	addrs := map[string]string{}
	for name, dir := range nodes {
		eng, err := engine.New(engine.Config{Shards: 1, Order: 2, Levels: 4})
		if err != nil {
			return err
		}
		defer eng.Close()
		srv := wire.NewServer(eng)
		fs := &replic.FetchServer{Dir: dir}
		srv.SetFetchHandler(fs.Handle)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer ln.Close()
		go srv.Serve(ln)
		addrs[name] = ln.Addr().String()
	}

	ev := evidence{
		Schema: "bmwrot/v1", Seed: seed, Shards: shards, Ops: ops,
		Corruptions: corruptions, ByClass: map[string]int{},
	}
	rng := rand.New(rand.NewSource(seed * 7919))
	names := []string{"primary", "follower"}
	for i := 0; i < corruptions; i++ {
		victim := names[i%2]
		peer := names[(i+1)%2]
		class := classes[i%len(classes)]
		tr := runTrial(i, class, nodes[victim], addrs[peer], pristine, shards, golden, rng)
		tr.Node = victim
		ev.ByClass[class]++
		if !tr.Detected {
			ev.Escapes++
		}
		if !tr.Detected || !tr.Classified || !tr.Repaired || !tr.Identical || !tr.DrainOK {
			ev.Failures++
		}
		ev.Trials = append(ev.Trials, tr)
		if verbose || tr.Err != "" {
			fmt.Printf("trial %2d %-8s %-12s %-40s detected=%v classified=%v repaired=%v identical=%v drain=%v %s\n",
				i, victim, class, tr.Target, tr.Detected, tr.Classified, tr.Repaired, tr.Identical, tr.DrainOK, tr.Err)
		}
	}
	ev.Pass = ev.Escapes == 0 && ev.Failures == 0

	path, err := harness.WriteEvidence(evDir, "bmwrot.json", ev)
	if err != nil {
		return err
	}
	fmt.Printf("bmwrot: %d corruptions, %d classes, %d escapes, %d failures → %s\n",
		corruptions, len(ev.ByClass), ev.Escapes, ev.Failures, path)
	if !ev.Pass {
		return fmt.Errorf("%d escapes, %d failures", ev.Escapes, ev.Failures)
	}
	return nil
}

// buildNode writes a checkpoint fan-out: per shard, a seeded core-tree
// workload recorded through persist.Manager with a mid-stream
// checkpoint (nonzero sealed WAL prefix) and a recorded tail, then
// ENGINE.json sealing the shard manifests. It returns the golden drain
// (per shard, in pop order), audited against a refpq mirror.
func buildNode(dir string, shards, ops int, seed int64) ([][]refpq.Entry, error) {
	man := engine.CheckpointManifest{
		Schema: engine.EngineManifestSchema,
		Shards: shards,
		Kind:   "core",
	}
	golden := make([][]refpq.Entry, shards)
	for s := 0; s < shards; s++ {
		tr := core.New(treeOrder, treeLevels)
		ref := refpq.New()
		m, err := persist.Attach(engine.ShardDir(dir, s), tr, persist.Options{
			ChunkSize: chunkSize,
			WAL:       persist.WALOptions{ChainEvery: chainEvery},
		})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed + int64(s)*1000))
		for i := 0; i < ops; i++ {
			var op persist.Op
			if tr.Len() > 0 && (rng.Intn(3) == 0 || tr.AlmostFull()) {
				e, err := tr.Pop()
				if err != nil {
					return nil, err
				}
				if e.Value != ref.MinValue() {
					return nil, fmt.Errorf("shard %d workload pop %d diverges from reference", s, i)
				}
				ref.RemoveExact(refpq.Entry{Value: e.Value, Meta: e.Meta})
				p, q := tr.OpStats()
				op = persist.Op{Kind: hw.Pop, Cycle: p + q, Value: e.Value, Meta: e.Meta}
			} else {
				e := core.Element{Value: uint64(rng.Intn(1000)), Meta: uint64(i)}
				if err := tr.Push(e); err != nil {
					return nil, err
				}
				ref.Push(refpq.Entry{Value: e.Value, Meta: e.Meta})
				p, q := tr.OpStats()
				op = persist.Op{Kind: hw.Push, Cycle: p + q, Value: e.Value, Meta: e.Meta}
			}
			if err := m.Record(op); err != nil {
				return nil, err
			}
			if i == ops*2/3 {
				if err := m.Checkpoint(); err != nil {
					return nil, err
				}
			}
		}
		sm := m.Manifest()
		if sm == nil {
			return nil, fmt.Errorf("shard %d missing manifest", s)
		}
		man.ShardChecksums = append(man.ShardChecksums, sm.Checksum)
		if err := m.Close(); err != nil {
			return nil, err
		}
		// The golden drain: pop the surviving elements out of the tree,
		// auditing each against the reference mirror.
		for tr.Len() > 0 {
			e, err := tr.Pop()
			if err != nil {
				return nil, err
			}
			if e.Value != ref.MinValue() {
				return nil, fmt.Errorf("shard %d golden drain diverges from reference", s)
			}
			ref.RemoveExact(refpq.Entry{Value: e.Value, Meta: e.Meta})
			golden[s] = append(golden[s], refpq.Entry{Value: e.Value, Meta: e.Meta})
		}
		if ref.Len() != 0 {
			return nil, fmt.Errorf("shard %d reference retains %d elements after drain", s, ref.Len())
		}
	}
	man.Root = engine.EngineRoot(man.ShardChecksums)
	sum, err := engine.EngineManifestChecksum(man)
	if err != nil {
		return nil, err
	}
	man.Checksum = sum
	return golden, engine.WriteEngineManifest(dir, man)
}

// injection describes one corruption: which file, what mutation, and
// which detection classes are acceptable.
type injection struct {
	target   string
	expected []string
	apply    func() error
}

// inject plans and applies one corruption of the given class against
// the victim dir. Variants within a class rotate on the trial id so
// repeated runs cover every variant; offsets rotate on the rng.
func inject(id int, class, dir string, shards int, rng *rand.Rand) (injection, error) {
	variant := id / len(classes)
	shard := rng.Intn(shards)
	sdir := engine.ShardDir(dir, shard)
	wal := filepath.Join(sdir, persist.WALName)
	manPath := filepath.Join(sdir, persist.ManifestName)
	man, err := persist.LoadManifest(nil, sdir)
	if err != nil {
		return injection{}, fmt.Errorf("victim shard %d manifest unreadable before injection: %w", shard, err)
	}
	snap := filepath.Join(sdir, persist.SnapFileName(man.SnapshotSeq))

	flip := func(path string, off int) func() error {
		return func() error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if off < 0 || off >= len(b) {
				off = len(b) / 2
			}
			b[off] ^= 0xff
			return os.WriteFile(path, b, 0o644)
		}
	}
	truncate := func(path string, frac float64) func() error {
		return func() error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, b[:int(float64(len(b))*frac)], 0o644)
		}
	}

	switch class {
	case classWALBody:
		// A record body inside the sealed prefix: payload bytes start
		// after the 8-byte frame header.
		lsn := 1 + rng.Intn(chainEvery-1)
		off := (lsn-1)*int(persist.RecordLen) + 8 + rng.Intn(int(persist.RecordLen)-8)
		return injection{
			target:   fmt.Sprintf("%s @%d (LSN %d body)", relTarget(dir, wal), off, lsn),
			expected: []string{persist.ClassWALRecord, persist.ClassWALChainPoint},
			apply:    flip(wal, off),
		}, nil
	case classWALHeader:
		lsn := 1 + rng.Intn(chainEvery-1)
		off := (lsn-1)*int(persist.RecordLen) + rng.Intn(8)
		return injection{
			target:   fmt.Sprintf("%s @%d (LSN %d header)", relTarget(dir, wal), off, lsn),
			expected: []string{persist.ClassWALRecord, persist.ClassWALChainPoint},
			apply:    flip(wal, off),
		}, nil
	case classWALChain:
		// The first chain-point frame sits right after chainEvery
		// records.
		off := chainEvery*int(persist.RecordLen) + rng.Intn(int(persist.ChainRecordLen))
		return injection{
			target:   fmt.Sprintf("%s @%d (chain-point)", relTarget(dir, wal), off),
			expected: []string{persist.ClassWALRecord, persist.ClassWALChainPoint},
			apply:    flip(wal, off),
		}, nil
	case classSnapChunk:
		return injection{
			target:   fmt.Sprintf("%s (chunk)", relTarget(dir, snap)),
			expected: []string{persist.ClassSnapshotChunk},
			apply:    flip(snap, rng.Intn(int(man.SnapshotBytes))),
		}, nil
	case classManifest:
		if variant%2 == 0 {
			return injection{
				target:   relTarget(dir, manPath),
				expected: []string{persist.ClassManifest},
				apply:    flip(manPath, -1),
			}, nil
		}
		ep := filepath.Join(dir, engine.EngineManifestName)
		return injection{
			target:   relTarget(dir, ep),
			expected: []string{persist.ClassManifest},
			apply:    flip(ep, -1),
		}, nil
	case classTruncation:
		switch variant % 3 {
		case 0:
			return injection{
				target:   fmt.Sprintf("%s (truncated)", relTarget(dir, wal)),
				expected: []string{persist.ClassWALTruncated, persist.ClassWALRecord},
				apply:    truncate(wal, 0.3),
			}, nil
		case 1:
			return injection{
				target:   fmt.Sprintf("%s (truncated)", relTarget(dir, snap)),
				expected: []string{persist.ClassSnapshotChunk},
				apply:    truncate(snap, 0.5),
			}, nil
		default:
			ep := filepath.Join(dir, engine.EngineManifestName)
			return injection{
				target:   fmt.Sprintf("%s (truncated)", relTarget(dir, ep)),
				expected: []string{persist.ClassManifest},
				apply:    truncate(ep, 0.5),
			}, nil
		}
	case classSwap:
		other := (shard + 1) % shards
		odir := engine.ShardDir(dir, other)
		if variant%2 == 0 {
			a, b := manPath, filepath.Join(odir, persist.ManifestName)
			return injection{
				target:   fmt.Sprintf("swap %s <-> %s", relTarget(dir, a), relTarget(dir, b)),
				expected: []string{persist.ClassManifest},
				apply:    swapFiles(a, b),
			}, nil
		}
		oman, err := persist.LoadManifest(nil, odir)
		if err != nil {
			return injection{}, err
		}
		a := snap
		b := filepath.Join(odir, persist.SnapFileName(oman.SnapshotSeq))
		return injection{
			target:   fmt.Sprintf("swap %s <-> %s", relTarget(dir, a), relTarget(dir, b)),
			expected: []string{persist.ClassSnapshotChunk},
			apply:    swapFiles(a, b),
		}, nil
	}
	return injection{}, fmt.Errorf("unknown class %q", class)
}

func relTarget(dir, path string) string {
	rel, err := filepath.Rel(dir, path)
	if err != nil {
		return path
	}
	return rel
}

func swapFiles(a, b string) func() error {
	return func() error {
		ab, err := os.ReadFile(a)
		if err != nil {
			return err
		}
		bb, err := os.ReadFile(b)
		if err != nil {
			return err
		}
		if err := os.WriteFile(a, bb, 0o644); err != nil {
			return err
		}
		return os.WriteFile(b, ab, 0o644)
	}
}

// detect runs the full integrity walk the serving stack uses: engine
// manifest validity, engine-root-to-shard-manifest binding, then
// persist.VerifyDir per shard. It returns every finding class.
func detect(dir string, shards int) []string {
	var found []string
	em, err := engine.LoadEngineManifest(dir)
	if err != nil {
		found = append(found, persist.ClassManifest)
	}
	for s := 0; s < shards; s++ {
		sdir := engine.ShardDir(dir, s)
		if em != nil && len(em.ShardChecksums) == em.Shards {
			if sm, err := persist.LoadManifest(nil, sdir); err == nil && sm.Checksum != em.ShardChecksums[s] {
				found = append(found, persist.ClassManifest)
			}
		}
		for _, f := range persist.VerifyDir(nil, sdir).Findings {
			found = append(found, f.Class)
		}
	}
	return found
}

// runTrial injects one corruption, demands detection with an expected
// class, repairs from the peer over the wire, and checks bit-identity
// plus golden-drain equivalence.
func runTrial(id int, class, victimDir, peerAddr, pristine string, shards int, golden [][]refpq.Entry, rng *rand.Rand) trialEvidence {
	tr := trialEvidence{ID: id, Class: class}
	inj, err := inject(id, class, victimDir, shards, rng)
	if err != nil {
		tr.Err = "inject: " + err.Error()
		return tr
	}
	tr.Target = inj.target
	tr.Expected = inj.expected
	if err := inj.apply(); err != nil {
		tr.Err = "apply: " + err.Error()
		return tr
	}

	tr.DetectedAs = detect(victimDir, shards)
	tr.Detected = len(tr.DetectedAs) > 0
	for _, got := range tr.DetectedAs {
		for _, want := range inj.expected {
			if got == want {
				tr.Classified = true
			}
		}
	}
	if !tr.Detected {
		tr.Err = "corruption escaped detection"
		return tr
	}

	f, err := replic.DialFetcher(peerAddr, 5*time.Second)
	if err != nil {
		tr.Err = "dial peer: " + err.Error()
		return tr
	}
	defer f.Close()
	rep, err := replic.RepairCheckpoint(victimDir, f, replic.RepairConfig{
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		tr.Err = "repair: " + err.Error()
		return tr
	}
	tr.Repaired = rep.Clean && len(detect(victimDir, shards)) == 0
	tr.Files = rep.FilesFetched
	tr.Bytes = rep.BytesFetched

	identical, err := treesIdentical(victimDir, pristine)
	if err != nil {
		tr.Err = "compare: " + err.Error()
		return tr
	}
	tr.Identical = identical

	drainOK, err := drainMatchesGolden(victimDir, shards, golden)
	if err != nil {
		tr.Err = "drain: " + err.Error()
		return tr
	}
	tr.DrainOK = drainOK
	if !tr.Classified {
		tr.Err = fmt.Sprintf("detected as %v, expected one of %v", tr.DetectedAs, inj.expected)
	}
	return tr
}

// treesIdentical compares every regular file under two directory trees.
func treesIdentical(a, b string) (bool, error) {
	ok := true
	err := filepath.Walk(b, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(b, path)
		want, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		got, err := os.ReadFile(filepath.Join(a, rel))
		if err != nil || string(got) != string(want) {
			ok = false
		}
		return nil
	})
	return ok, err
}

// drainMatchesGolden restores every shard from the repaired fan-out and
// drains it against the golden sequence.
func drainMatchesGolden(dir string, shards int, golden [][]refpq.Entry) (bool, error) {
	for s := 0; s < shards; s++ {
		tr := core.New(treeOrder, treeLevels)
		m, _, err := persist.Open(engine.ShardDir(dir, s), tr, persist.Options{})
		if err != nil {
			return false, fmt.Errorf("shard %d restore: %w", s, err)
		}
		if err := m.Close(); err != nil {
			return false, err
		}
		popped := 0
		for tr.Len() > 0 {
			e, err := tr.Pop()
			if err != nil {
				return false, err
			}
			if popped >= len(golden[s]) || golden[s][popped] != (refpq.Entry{Value: e.Value, Meta: e.Meta}) {
				return false, nil
			}
			popped++
		}
		if popped != len(golden[s]) {
			return false, nil
		}
	}
	return true, nil
}
