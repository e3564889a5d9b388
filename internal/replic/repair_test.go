package replic

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/wire"
)

const (
	repairShards     = 2
	repairOps        = 400
	repairChainEvery = 16
	repairChunkSize  = 256
)

// buildCheckpointNode writes a WAL-bearing checkpoint fan-out under dir:
// per shard, a seeded core-tree workload recorded through a
// persist.Manager, a mid-stream checkpoint (so the manifest seals a
// nonzero WAL prefix), then more records (so an unsealed tail follows
// the seal), then ENGINE.json binding the shard manifests. The same
// seed produces bit-identical directories — the repair tests' stand-in
// for a primary/follower pair that applied the same replicated history.
func buildCheckpointNode(t *testing.T, dir string) {
	t.Helper()
	man := engine.CheckpointManifest{
		Schema: engine.EngineManifestSchema,
		Shards: repairShards,
		Kind:   "core",
	}
	for s := 0; s < repairShards; s++ {
		tr := core.New(2, 6)
		m, err := persist.Attach(engine.ShardDir(dir, s), tr, persist.Options{
			ChunkSize: repairChunkSize,
			WAL:       persist.WALOptions{ChainEvery: repairChainEvery},
		})
		if err != nil {
			t.Fatalf("shard %d attach: %v", s, err)
		}
		rng := rand.New(rand.NewSource(int64(41 + s)))
		for i := 0; i < repairOps; i++ {
			var op persist.Op
			if tr.Len() > 0 && (rng.Intn(3) == 0 || tr.AlmostFull()) {
				e, err := tr.Pop()
				if err != nil {
					t.Fatal(err)
				}
				p, q := tr.OpStats()
				op = persist.Op{Kind: hw.Pop, Cycle: p + q, Value: e.Value, Meta: e.Meta}
			} else {
				e := core.Element{Value: uint64(rng.Intn(1000)), Meta: uint64(i)}
				if err := tr.Push(e); err != nil {
					t.Fatal(err)
				}
				p, q := tr.OpStats()
				op = persist.Op{Kind: hw.Push, Cycle: p + q, Value: e.Value, Meta: e.Meta}
			}
			if err := m.Record(op); err != nil {
				t.Fatalf("shard %d record %d: %v", s, i, err)
			}
			if i == repairOps*2/3 {
				if err := m.Checkpoint(); err != nil {
					t.Fatalf("shard %d checkpoint: %v", s, err)
				}
			}
		}
		sm := m.Manifest()
		if sm == nil {
			t.Fatalf("shard %d has no manifest after checkpoint", s)
		}
		man.ShardChecksums = append(man.ShardChecksums, sm.Checksum)
		if err := m.Close(); err != nil {
			t.Fatalf("shard %d close: %v", s, err)
		}
	}
	man.Root = engine.EngineRoot(man.ShardChecksums)
	sum, err := engine.EngineManifestChecksum(man)
	if err != nil {
		t.Fatal(err)
	}
	man.Checksum = sum
	if err := engine.WriteEngineManifest(dir, man); err != nil {
		t.Fatal(err)
	}
}

// corrupt flips one byte of the file at off (negative: from the end).
func corrupt(t *testing.T, path string, off int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += len(b)
	}
	b[off] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func mustEqualFiles(t *testing.T, a, b string) {
	t.Helper()
	eq, err := equalFiles(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("%s differs from %s after repair", a, b)
	}
}

// equalFiles reports whether two files hold identical bytes.
func equalFiles(a, b string) (bool, error) {
	ab, err := os.ReadFile(a)
	if err != nil {
		return false, err
	}
	bb, err := os.ReadFile(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(ab, bb), nil
}

// assertRepaired runs the repair against an in-process peer and checks
// the fan-out verifies clean and bit-identical to the peer afterwards.
func assertRepaired(t *testing.T, local, peer string) *RepairReport {
	t.Helper()
	rep, err := RepairCheckpoint(local, LocalPeer{&FetchServer{Dir: peer}}, RepairConfig{})
	if err != nil {
		t.Fatalf("repair: %v (findings %v)", err, rep.Findings)
	}
	if !rep.Clean {
		t.Fatal("repair reported not clean")
	}
	if len(rep.Findings) == 0 {
		t.Fatal("repair found nothing — the injected corruption escaped")
	}
	for s := 0; s < repairShards; s++ {
		ls, ps := engine.ShardDir(local, s), engine.ShardDir(peer, s)
		for _, name := range []string{persist.WALName, persist.ManifestName} {
			mustEqualFiles(t, filepath.Join(ls, name), filepath.Join(ps, name))
		}
		man, err := persist.LoadManifest(nil, ls)
		if err != nil {
			t.Fatal(err)
		}
		snap := persist.SnapFileName(man.SnapshotSeq)
		mustEqualFiles(t, filepath.Join(ls, snap), filepath.Join(ps, snap))
	}
	return rep
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		out := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(out, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// newPair builds the peer node once per test and clones it into the
// local node.
func newPair(t *testing.T) (local, peer string) {
	base := t.TempDir()
	peer = filepath.Join(base, "peer")
	local = filepath.Join(base, "local")
	buildCheckpointNode(t, peer)
	copyTree(t, peer, local)
	return local, peer
}

func TestFetchCodecsRoundTrip(t *testing.T) {
	req := FetchReq{File: FetchSnapshot, Shard: 3, Seq: 2, Offset: 1 << 20}
	got, err := ParseFetchReq(AppendFetchReq(nil, req))
	if err != nil {
		t.Fatal(err)
	}
	if got != req {
		t.Fatalf("request round trip: %+v, want %+v", got, req)
	}

	resp := FetchResp{Size: 9000, Data: bytes.Repeat([]byte{0xAB}, 256)}
	back, err := ParseFetchResp(AppendFetchResp(nil, resp))
	if err != nil {
		t.Fatal(err)
	}
	if back.Size != resp.Size || !bytes.Equal(back.Data, resp.Data) {
		t.Fatalf("response round trip: size %d, %d bytes", back.Size, len(back.Data))
	}

	// Arbitrary garbage never panics and errors typed.
	for _, p := range [][]byte{
		{0xFF, 1, 2},
		AppendFetchReq(nil, FetchReq{File: 9}),
		append(AppendFetchReq(nil, req), 0),
	} {
		if _, err := ParseFetchReq(p); !errors.Is(err, wire.ErrBadFrame) {
			t.Fatalf("fetch request %x: err %v, want ErrBadFrame", p, err)
		}
	}
	for _, p := range [][]byte{
		{0xFF},
		AppendFetchResp(nil, FetchResp{Size: 3, Data: []byte("four")}),
		AppendFetchResp(nil, FetchResp{Size: 1 << 30, Data: make([]byte, frameBytes+1)}),
	} {
		if _, err := ParseFetchResp(p); !errors.Is(err, wire.ErrBadFrame) {
			t.Fatalf("fetch response of %d bytes: err %v, want ErrBadFrame", len(p), err)
		}
	}
}

// serveFetch answers TReplFetch frames from dir on a loopback
// wire.Server and dials a Fetcher to it.
func serveFetch(t *testing.T, dir string) *Fetcher {
	t.Helper()
	eng, err := engine.New(engine.Config{Shards: 1, Order: 2, Levels: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv := wire.NewServer(eng)
	srv.SetFetchHandler((&FetchServer{Dir: dir}).Handle)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	f, err := DialFetcher(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestFetchServerRefusals sends the server requests it must refuse:
// each gets a TError over the wire, never a panic and never another
// file's bytes, and the connection keeps serving afterwards.
func TestFetchServerRefusals(t *testing.T) {
	_, peer := newPair(t)
	f := serveFetch(t, peer)
	man, err := persist.LoadManifest(nil, engine.ShardDir(peer, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		req  FetchReq
		want string
	}{
		{"unknown file kind", FetchReq{File: 9}, "fetch file kind 9"},
		{"shard with no directory", FetchReq{File: FetchWAL, Shard: repairShards}, "no such file"},
		{"snapshot seq not covered", FetchReq{File: FetchSnapshot, Seq: man.SnapshotSeq + 1}, "not covered"},
		{"offset past the end", FetchReq{File: FetchSnapshot, Seq: man.SnapshotSeq, Offset: uint64(man.SnapshotBytes) + 1}, "past the end"},
	} {
		t.Run(c.name, func(t *testing.T) {
			resp, err := f.Fetch(c.req)
			if err == nil {
				t.Fatalf("served %d bytes, want a refusal", len(resp))
			}
			if !strings.Contains(err.Error(), "peer refused fetch") || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err %q, want a TError naming %q", err, c.want)
			}
		})
	}
	resp, err := f.Fetch(FetchReq{File: FetchEngineManifest})
	if err != nil {
		t.Fatalf("fetch after refusals: %v", err)
	}
	got, err := ParseFetchResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(peer, engine.EngineManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, want) {
		t.Fatal("engine manifest fetched after refusals differs from the file")
	}
}

// TestFetchWholeFile fetches a WAL larger than one response over the
// wire and gets it back byte-identical; a file that grows between
// responses aborts the fetch.
func TestFetchWholeFile(t *testing.T) {
	dir := t.TempDir()
	sdir := engine.ShardDir(dir, 0)
	if err := os.MkdirAll(sdir, 0o755); err != nil {
		t.Fatal(err)
	}
	ops := make([]persist.Op, 20000)
	for i := range ops {
		ops[i] = persist.Op{Kind: hw.Push, Cycle: uint64(i), Value: uint64(i * 7), Meta: uint64(i)}
	}
	img, _ := persist.BuildWALImage(ops, persist.DefaultChainEvery)
	if len(img) <= frameBytes {
		t.Fatalf("wal image %d bytes fits one response (%d)", len(img), frameBytes)
	}
	path := filepath.Join(sdir, persist.WALName)
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}

	r := &repairer{peer: serveFetch(t, dir), rep: &RepairReport{}}
	got, err := r.fetch(FetchReq{File: FetchWAL})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Fatalf("fetched %d bytes, not the %d-byte file", len(got), len(img))
	}
	if r.rep.FilesFetched != 1 || r.rep.BytesFetched != int64(len(img)) {
		t.Fatalf("report counts %d files, %d bytes; want 1, %d", r.rep.FilesFetched, r.rep.BytesFetched, len(img))
	}

	grow := growingPeer{inner: LocalPeer{&FetchServer{Dir: dir}}, path: path}
	r = &repairer{peer: grow, rep: &RepairReport{}}
	if _, err := r.fetch(FetchReq{File: FetchWAL}); err == nil || !strings.Contains(err.Error(), "changed size") {
		t.Fatalf("fetch of a growing file: err %v, want a size-change abort", err)
	}
}

// growingPeer appends a record to the file at path after every
// response, as a peer still recording would.
type growingPeer struct {
	inner FetchPeer
	path  string
}

func (g growingPeer) Fetch(req FetchReq) ([]byte, error) {
	resp, err := g.inner.Fetch(req)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(g.path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		return nil, err
	}
	_, err = f.Write(persist.AppendRecord(nil, persist.Op{Kind: hw.Push}))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return resp, err
}

// TestRepairWALRecordRot rots a record body inside the sealed prefix:
// the repairer must fetch the peer's log, and only it, and install it
// bit-identically.
func TestRepairWALRecordRot(t *testing.T) {
	local, peer := newPair(t)
	corrupt(t, filepath.Join(engine.ShardDir(local, 0), persist.WALName), 5*int(persist.RecordLen)+10)
	rep := assertRepaired(t, local, peer)
	if rep.FilesFetched != 1 {
		t.Fatalf("record rot repaired with %d files fetched, want 1", rep.FilesFetched)
	}
}

// TestRepairWALChainPointRot rots a seal: the records around it are
// intact but unverifiable, so the repairer refetches the log, which
// must reproduce the sealed head.
func TestRepairWALChainPointRot(t *testing.T) {
	local, peer := newPair(t)
	// The first chain-point sits after repairChainEvery records.
	off := repairChainEvery*int(persist.RecordLen) + 3
	corrupt(t, filepath.Join(engine.ShardDir(local, 0), persist.WALName), off)
	assertRepaired(t, local, peer)
}

// TestRepairWALTruncation cuts the log below the sealed record count.
func TestRepairWALTruncation(t *testing.T) {
	local, peer := newPair(t)
	path := filepath.Join(engine.ShardDir(local, 1), persist.WALName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	rep := assertRepaired(t, local, peer)
	if rep.FilesFetched != 1 {
		t.Fatalf("truncation repaired with %d files fetched, want 1", rep.FilesFetched)
	}
}

// TestRepairWALMissing deletes the log outright.
func TestRepairWALMissing(t *testing.T) {
	local, peer := newPair(t)
	if err := os.Remove(filepath.Join(engine.ShardDir(local, 0), persist.WALName)); err != nil {
		t.Fatal(err)
	}
	assertRepaired(t, local, peer)
}

// TestRepairSnapshotChunkRot rots bytes inside the manifest-covered
// snapshot: the repairer fetches that one file whole and checks it
// against every sealed leaf.
func TestRepairSnapshotChunkRot(t *testing.T) {
	local, peer := newPair(t)
	sdir := engine.ShardDir(local, 1)
	man, err := persist.LoadManifest(nil, sdir)
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(sdir, persist.SnapFileName(man.SnapshotSeq))
	corrupt(t, snap, int(man.SnapshotBytes)/2)
	rep := assertRepaired(t, local, peer)
	if rep.FilesFetched != 1 || rep.BytesFetched != man.SnapshotBytes {
		t.Fatalf("chunk rot fetched %d files, %d bytes; want 1 file, the %d-byte snapshot",
			rep.FilesFetched, rep.BytesFetched, man.SnapshotBytes)
	}
}

// TestRepairShardManifestTamper rots the shard manifest; the
// replacement must carry the checksum the engine root sealed.
func TestRepairShardManifestTamper(t *testing.T) {
	local, peer := newPair(t)
	corrupt(t, filepath.Join(engine.ShardDir(local, 0), persist.ManifestName), 40)
	rep := assertRepaired(t, local, peer)
	if rep.FilesFetched != 1 {
		t.Fatalf("manifest tamper repaired with %d files fetched, want 1", rep.FilesFetched)
	}
}

// TestRepairSwappedShardManifests swaps two individually-valid shard
// manifests — only the engine-root binding can catch this.
func TestRepairSwappedShardManifests(t *testing.T) {
	local, peer := newPair(t)
	a := filepath.Join(engine.ShardDir(local, 0), persist.ManifestName)
	b := filepath.Join(engine.ShardDir(local, 1), persist.ManifestName)
	ab, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(a, bb, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, ab, 0o644); err != nil {
		t.Fatal(err)
	}
	rep := assertRepaired(t, local, peer)
	if rep.FilesFetched != 2 {
		t.Fatalf("swap repaired with %d files fetched, want 2", rep.FilesFetched)
	}
}

// TestRepairEngineManifestTorn truncates ENGINE.json; the fetched
// replacement must self-verify before anything trusts it.
func TestRepairEngineManifestTorn(t *testing.T) {
	local, peer := newPair(t)
	path := filepath.Join(local, engine.EngineManifestName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	assertRepaired(t, local, peer)
	mustEqualFiles(t, path, filepath.Join(peer, engine.EngineManifestName))
}

// TestRepairRefusesUnprovablePeerData pins the trust model: a peer
// serving a tampered file (valid framing, one wrong byte) must be
// caught by the seal check, and the repair must fail without
// installing anything.
func TestRepairRefusesUnprovablePeerData(t *testing.T) {
	t.Run("snapshot", func(t *testing.T) {
		local, peer := newPair(t)
		sdir := engine.ShardDir(local, 0)
		man, err := persist.LoadManifest(nil, sdir)
		if err != nil {
			t.Fatal(err)
		}
		snap := filepath.Join(sdir, persist.SnapFileName(man.SnapshotSeq))
		corrupt(t, snap, 10)
		assertRefused(t, local, peer, snap, FetchSnapshot, uint64(man.SnapshotBytes)/2, "fail the sealed leaves")
	})
	t.Run("wal", func(t *testing.T) {
		local, peer := newPair(t)
		wal := filepath.Join(engine.ShardDir(local, 0), persist.WALName)
		corrupt(t, wal, 5*int(persist.RecordLen)+10)
		// The peer flips a byte of a record two seals into the prefix
		// the manifest seals.
		assertRefused(t, local, peer, wal, FetchWAL, 2*repairChainEvery*uint64(persist.RecordLen)+20, "does not reproduce sealed chain head")
	})
}

// assertRefused repairs local from an evilPeer that flips the byte at
// off of every file of kind file it relays, and checks the repair fails
// naming want, with path byte-identical to before.
func assertRefused(t *testing.T, local, peer, path string, file uint8, off uint64, want string) {
	t.Helper()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	evil := evilPeer{inner: LocalPeer{&FetchServer{Dir: peer}}, file: file, off: off}
	if _, err := RepairCheckpoint(local, evil, RepairConfig{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("repair from a tampered peer file: err %v, want a refusal naming %q", err, want)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed repair modified the local file")
	}
}

// evilPeer flips the byte at off of every file of kind file it relays.
type evilPeer struct {
	inner FetchPeer
	file  uint8
	off   uint64
}

func (e evilPeer) Fetch(req FetchReq) ([]byte, error) {
	raw, err := e.inner.Fetch(req)
	if err != nil || req.File != e.file {
		return raw, err
	}
	resp, err := ParseFetchResp(raw)
	if err != nil {
		return nil, err
	}
	if e.off >= req.Offset && e.off-req.Offset < uint64(len(resp.Data)) {
		resp.Data[e.off-req.Offset] ^= 0x01
	}
	return AppendFetchResp(nil, resp), nil
}

// TestRepairOverWire runs a full repair through real TReplFetch /
// TReplChunk frames against a wire.Server, and then proves the
// repaired state is behaviourally identical: both nodes' shards
// recover and drain the same element sequence.
func TestRepairOverWire(t *testing.T) {
	local, peer := newPair(t)
	f := serveFetch(t, peer)
	corrupt(t, filepath.Join(engine.ShardDir(local, 0), persist.WALName), 7*int(persist.RecordLen)+4)
	corrupt(t, filepath.Join(engine.ShardDir(local, 1), persist.ManifestName), 30)

	reg := obs.NewRegistry()
	rep, err := RepairCheckpoint(local, f, RepairConfig{Metrics: reg, Prefix: "repl"})
	if err != nil {
		t.Fatalf("repair over wire: %v", err)
	}
	if !rep.Clean {
		t.Fatal("repair over wire not clean")
	}
	snap := reg.Snapshot()
	if snap.Counters["repl_repair_dirs_total"] != repairShards ||
		snap.Counters["repl_repair_files_fetched_total"] != uint64(rep.FilesFetched) ||
		snap.Counters["repl_repair_bytes_fetched_total"] != uint64(rep.BytesFetched) || rep.FilesFetched != 2 {
		t.Fatalf("repair counters %v, report %d files / %d bytes; want 2 files", snap.Counters, rep.FilesFetched, rep.BytesFetched)
	}

	drain := func(dir string) [][2]uint64 {
		var out [][2]uint64
		for s := 0; s < repairShards; s++ {
			tr := core.New(2, 6)
			m, _, err := persist.Open(engine.ShardDir(dir, s), tr, persist.Options{})
			if err != nil {
				t.Fatalf("%s shard %d open: %v", dir, s, err)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			for tr.Len() > 0 {
				e, err := tr.Pop()
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, [2]uint64{e.Value, e.Meta})
			}
		}
		return out
	}
	got, want := drain(local), drain(peer)
	if len(got) != len(want) {
		t.Fatalf("repaired drain %d elements, peer %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("repaired drain diverges at %d: %v vs %v", i, got[i], want[i])
		}
	}
}
