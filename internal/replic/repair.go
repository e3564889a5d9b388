// Anti-entropy repair: when the scrubber (or recovery) localises bit
// rot in a checkpoint fan-out, the repairer fetches each damaged file
// whole from a peer, by offset, over the wire protocol's TReplFetch /
// TReplChunk frames, checks it against the seals the local checkpoint
// already holds, and installs it, until the directory passes
// persist.VerifyDir clean.
//
// Trust model: fetched bytes are never installed on the peer's word.
// A fetched WAL must reproduce the manifest's sealed chain head; a
// fetched snapshot must match every sealed Merkle leaf; a fetched shard
// manifest must carry the self-checksum the engine manifest sealed.
// Only a fetched engine manifest bottoms out on its own self-checksum —
// it authenticates the peer's checkpoint, and the caller decides
// whether that peer is trusted (see DESIGN.md §5g).

package replic

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/wire"
)

// Fetch file kinds: the four files of a checkpoint fan-out.
const (
	// FetchEngineManifest names the peer's ENGINE.json.
	FetchEngineManifest uint8 = 1
	// FetchShardManifest names one shard's MANIFEST.json.
	FetchShardManifest uint8 = 2
	// FetchWAL names one shard's wal.log.
	FetchWAL uint8 = 3
	// FetchSnapshot names the snapshot one shard's manifest covers.
	FetchSnapshot uint8 = 4
)

// FetchReq asks a peer for the bytes of one checkpoint file from
// Offset on. Shard is ignored for the engine manifest; Seq matters only
// for FetchSnapshot, where it must equal the shard manifest's
// SnapshotSeq.
type FetchReq struct {
	File   uint8
	Shard  uint32
	Seq    uint64
	Offset uint64
}

// AppendFetchReq encodes a TReplFetch payload.
func AppendFetchReq(dst []byte, r FetchReq) []byte {
	var e persist.Enc
	e.B = dst
	e.U8(r.File)
	e.U32(r.Shard)
	e.U64(r.Seq)
	e.U64(r.Offset)
	return e.B
}

// ParseFetchReq decodes a TReplFetch payload.
func ParseFetchReq(p []byte) (FetchReq, error) {
	d := persist.NewDec(p)
	r := FetchReq{File: d.U8(), Shard: d.U32(), Seq: d.U64(), Offset: d.U64()}
	if err := d.Done(); err != nil {
		return FetchReq{}, fmt.Errorf("%w: fetch request: %v", wire.ErrBadFrame, err)
	}
	if r.File < FetchEngineManifest || r.File > FetchSnapshot {
		return FetchReq{}, fmt.Errorf("%w: fetch file kind %d", wire.ErrBadFrame, r.File)
	}
	return r, nil
}

// FetchResp answers a FetchReq: the file's total size and at most
// frameBytes of its bytes from the request's offset.
type FetchResp struct {
	Size uint64
	Data []byte
}

// AppendFetchResp encodes a TReplChunk payload.
func AppendFetchResp(dst []byte, r FetchResp) []byte {
	var e persist.Enc
	e.B = dst
	e.U64(r.Size)
	e.Bytes(r.Data)
	return e.B
}

// ParseFetchResp decodes a TReplChunk payload. Data aliases p.
func ParseFetchResp(p []byte) (FetchResp, error) {
	d := persist.NewDec(p)
	r := FetchResp{Size: d.U64(), Data: d.Bytes()}
	if err := d.Done(); err != nil {
		return FetchResp{}, fmt.Errorf("%w: fetch response: %v", wire.ErrBadFrame, err)
	}
	if len(r.Data) > frameBytes || uint64(len(r.Data)) > r.Size {
		return FetchResp{}, fmt.Errorf("%w: fetch response carries %d bytes of a %d-byte file", wire.ErrBadFrame, len(r.Data), r.Size)
	}
	return r, nil
}

// FetchServer answers anti-entropy fetches from a checkpoint fan-out
// directory (ENGINE.json plus shard-NNN subtrees). It serves bytes and
// verifies nothing: the repairer checks every fetched file against the
// seals it already trusts. Handle is wire.FetchHandler-shaped.
type FetchServer struct {
	Dir string
}

// Handle answers one fetch request.
func (s *FetchServer) Handle(payload []byte) ([]byte, error) {
	req, err := ParseFetchReq(payload)
	if err != nil {
		return nil, err
	}
	path, err := s.path(req)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("replic: fetch: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("replic: fetch: %w", err)
	}
	size := uint64(fi.Size())
	if req.Offset > size {
		return nil, fmt.Errorf("replic: fetch offset %d past the end of %s (%d bytes)", req.Offset, path, size)
	}
	data := make([]byte, min(size-req.Offset, frameBytes))
	if _, err := f.ReadAt(data, int64(req.Offset)); err != nil {
		return nil, fmt.Errorf("replic: fetch: %w", err)
	}
	return AppendFetchResp(nil, FetchResp{Size: size, Data: data}), nil
}

// path names the file req asks for. A snapshot is served only at the
// sequence the shard manifest covers.
func (s *FetchServer) path(req FetchReq) (string, error) {
	sdir := engine.ShardDir(s.Dir, int(req.Shard))
	switch req.File {
	case FetchEngineManifest:
		return filepath.Join(s.Dir, engine.EngineManifestName), nil
	case FetchShardManifest:
		return filepath.Join(sdir, persist.ManifestName), nil
	case FetchWAL:
		return filepath.Join(sdir, persist.WALName), nil
	}
	man, err := persist.LoadManifest(nil, sdir)
	if err != nil {
		return "", fmt.Errorf("replic: shard %d manifest: %w", req.Shard, err)
	}
	if man.SnapshotSeq != req.Seq {
		return "", fmt.Errorf("replic: shard %d snapshot seq %d not covered (manifest seals %d)", req.Shard, req.Seq, man.SnapshotSeq)
	}
	return filepath.Join(sdir, persist.SnapFileName(req.Seq)), nil
}

// FetchPeer is the transport seam the repairer pulls from: Fetcher over
// a live connection in production, a FetchServer directly in tests.
type FetchPeer interface {
	Fetch(req FetchReq) ([]byte, error)
}

// LocalPeer adapts a FetchServer into an in-process FetchPeer.
type LocalPeer struct{ S *FetchServer }

// Fetch serves the request without a wire round trip.
func (l LocalPeer) Fetch(req FetchReq) ([]byte, error) {
	return l.S.Handle(AppendFetchReq(nil, req))
}

// Fetcher is a synchronous TReplFetch client: one outstanding request
// per connection, responses matched by id.
type Fetcher struct {
	conn net.Conn
	id   uint64
}

// DialFetcher connects to a peer's wire listener for anti-entropy
// reads.
func DialFetcher(addr string, timeout time.Duration) (*Fetcher, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Fetcher{conn: conn}, nil
}

// Fetch performs one round trip.
func (f *Fetcher) Fetch(req FetchReq) ([]byte, error) {
	f.id++
	if err := wire.WriteFrame(f.conn, wire.TReplFetch, f.id, AppendFetchReq(nil, req)); err != nil {
		return nil, err
	}
	for {
		fr, err := wire.ReadFrame(f.conn)
		if err != nil {
			return nil, err
		}
		if fr.ID != f.id {
			continue // stale response from an abandoned request
		}
		switch fr.Type {
		case wire.TReplChunk:
			return append([]byte(nil), fr.Payload...), nil
		case wire.TError:
			return nil, fmt.Errorf("replic: peer refused fetch: %s", errString(fr.Payload))
		default:
			return nil, fmt.Errorf("replic: unexpected %d frame answering fetch", fr.Type)
		}
	}
}

// Close releases the connection.
func (f *Fetcher) Close() error { return f.conn.Close() }

// RepairConfig tunes a repair run.
type RepairConfig struct {
	// Metrics receives the repl_repair_* counters under Prefix (default
	// "repl").
	Metrics *obs.Registry
	Prefix  string
	// Flight receives one FlightIntegrity event per repaired finding.
	Flight *obs.FlightRecorder
}

// RepairReport summarises one RepairCheckpoint run.
type RepairReport struct {
	// Findings are every fault VerifyDir localised before repair, in
	// shard order (engine-manifest faults carry shard -1).
	Findings []ShardFinding `json:"findings"`
	// FilesFetched / BytesFetched count the whole files that came over
	// the wire and their bytes.
	FilesFetched int   `json:"files_fetched"`
	BytesFetched int64 `json:"bytes_fetched"`
	// Clean reports the post-repair VerifyDir outcome for every shard.
	Clean bool `json:"clean"`
}

// ShardFinding labels a persist finding with its shard.
type ShardFinding struct {
	Shard   int             `json:"shard"`
	Finding persist.Finding `json:"finding"`
}

// repairer carries the run's counters.
type repairer struct {
	cfg    RepairConfig
	peer   FetchPeer
	rep    *RepairReport
	dirs   *obs.Counter
	files  *obs.Counter
	bytes  *obs.Counter
	failed *obs.Counter
}

// RepairCheckpoint audits the checkpoint fan-out at dir and replaces
// every damaged file with the peer's copy, installing a fetched file
// only once it verifies against the seal the local checkpoint already
// trusts. It returns the report and an error when any fault could not
// be repaired; the directory is only modified with verified files, so
// a failed repair never makes things worse.
func RepairCheckpoint(dir string, peer FetchPeer, cfg RepairConfig) (*RepairReport, error) {
	if cfg.Prefix == "" {
		cfg.Prefix = "repl"
	}
	r := &repairer{cfg: cfg, peer: peer, rep: &RepairReport{}}
	if reg := cfg.Metrics; reg != nil {
		p := cfg.Prefix
		r.dirs = reg.Counter(p + "_repair_dirs_total")
		r.files = reg.Counter(p + "_repair_files_fetched_total")
		r.bytes = reg.Counter(p + "_repair_bytes_fetched_total")
		r.failed = reg.Counter(p + "_repair_failed_total")
	}
	err := r.run(dir)
	if err != nil {
		r.failed.Inc()
	}
	return r.rep, err
}

func (r *repairer) flight(shard int, f persist.Finding) {
	r.rep.Findings = append(r.rep.Findings, ShardFinding{Shard: shard, Finding: f})
	if r.cfg.Flight != nil {
		r.cfg.Flight.RecordMsg(obs.FlightIntegrity, 0, "repair "+f.String(), f.FromLSN, f.ToLSN, uint64(shard))
	}
}

// fetch pulls the whole file req names from the peer, frameBytes at a
// time. The file's size must not change between responses: a peer
// that checkpoints mid-fetch denies the repair.
func (r *repairer) fetch(req FetchReq) ([]byte, error) {
	var b []byte
	var size uint64
	for {
		req.Offset = uint64(len(b))
		raw, err := r.peer.Fetch(req)
		if err != nil {
			return nil, err
		}
		resp, err := ParseFetchResp(raw)
		if err != nil {
			return nil, err
		}
		if req.Offset == 0 {
			size = resp.Size
		}
		switch {
		case resp.Size != size:
			return nil, fmt.Errorf("peer file changed size mid-fetch (%d, then %d bytes)", size, resp.Size)
		case uint64(len(resp.Data)) > size-req.Offset:
			return nil, fmt.Errorf("peer sent %d bytes past offset %d of a %d-byte file", len(resp.Data), req.Offset, size)
		case len(resp.Data) == 0 && req.Offset < size:
			return nil, fmt.Errorf("peer sent no bytes at offset %d of a %d-byte file", req.Offset, size)
		}
		b = append(b, resp.Data...)
		if uint64(len(b)) == size {
			r.files.Inc()
			r.bytes.Add(size)
			r.rep.FilesFetched++
			r.rep.BytesFetched += int64(size)
			return b, nil
		}
	}
}

func (r *repairer) run(dir string) error {
	em, err := r.trustedEngineManifest(dir)
	if err != nil {
		return err
	}
	for i := 0; i < em.Shards; i++ {
		sealed := ""
		if len(em.ShardChecksums) == em.Shards {
			sealed = em.ShardChecksums[i]
		}
		if err := r.repairShard(dir, i, sealed); err != nil {
			return fmt.Errorf("replic: shard %d: %w", i, err)
		}
	}
	// Post-repair audit: the whole fan-out must verify clean.
	r.rep.Clean = true
	for i := 0; i < em.Shards; i++ {
		if v := persist.VerifyDir(nil, engine.ShardDir(dir, i)); !v.Clean() {
			r.rep.Clean = false
			return fmt.Errorf("replic: shard %d still dirty after repair: %v", i, v.Findings[0])
		}
	}
	return nil
}

// trustedEngineManifest returns a validated ENGINE.json, fetching a
// replacement from the peer when the local one is torn, rotted or
// missing.
func (r *repairer) trustedEngineManifest(dir string) (*engine.CheckpointManifest, error) {
	path := filepath.Join(dir, engine.EngineManifestName)
	m, err := engine.LoadEngineManifest(dir)
	if err == nil {
		return m, nil
	}
	r.flight(-1, persist.Finding{Path: path, Class: persist.ClassManifest, Detail: err.Error()})
	raw, ferr := r.fetch(FetchReq{File: FetchEngineManifest})
	if ferr != nil {
		return nil, fmt.Errorf("replic: engine manifest unrepairable: %v (fetch: %w)", err, ferr)
	}
	m, ferr = engine.DecodeEngineManifest("(fetched)", raw)
	if ferr != nil {
		return nil, fmt.Errorf("replic: peer engine manifest invalid: %w", ferr)
	}
	return m, persist.WriteFileDurable(nil, path, raw)
}

// trustedShardManifest returns shard i's validated MANIFEST.json,
// fetching a replacement when the local one fails its self-checksum or
// disagrees with the engine seal.
func (r *repairer) trustedShardManifest(sdir string, shard int, sealed string) (*persist.Manifest, error) {
	path := filepath.Join(sdir, persist.ManifestName)
	man, err := persist.LoadManifest(nil, sdir)
	if err == nil && (sealed == "" || man.Checksum == sealed) {
		return man, nil
	}
	detail := "disagrees with engine seal"
	if err != nil {
		detail = err.Error()
	}
	r.flight(shard, persist.Finding{Path: path, Class: persist.ClassManifest, Detail: detail})
	raw, ferr := r.fetch(FetchReq{File: FetchShardManifest, Shard: uint32(shard)})
	if ferr != nil {
		return nil, fmt.Errorf("shard manifest unrepairable: %v (fetch: %w)", detail, ferr)
	}
	man, ferr = persist.DecodeManifest("(fetched)", raw)
	if ferr != nil {
		return nil, fmt.Errorf("peer shard manifest invalid: %w", ferr)
	}
	if sealed != "" && man.Checksum != sealed {
		return nil, fmt.Errorf("peer shard manifest checksum %.12s not sealed by engine root (%.12s)", man.Checksum, sealed)
	}
	return man, persist.WriteFileDurable(nil, path, raw)
}

// repairShard brings one shard directory back to a clean VerifyDir.
func (r *repairer) repairShard(dir string, shard int, sealed string) error {
	sdir := engine.ShardDir(dir, shard)
	r.dirs.Inc()
	man, err := r.trustedShardManifest(sdir, shard, sealed)
	if err != nil {
		return err
	}
	if err := r.repairWAL(sdir, shard, man); err != nil {
		return err
	}
	if err := r.repairSnapshot(sdir, shard, man); err != nil {
		return err
	}
	return r.dropRottedStaleSnapshots(sdir, shard, man)
}

// repairWAL verifies the shard's log against the manifest's sealed
// chain head and, on damage, replaces it with the peer's log. The
// peer's log is installed only if it reproduces the sealed head with no
// bad range and no torn tail; its records past the seal are trusted
// only because they chain onto it, and they replace any local tail.
func (r *repairer) repairWAL(sdir string, shard int, man *persist.Manifest) error {
	expect, err := man.Head()
	if err != nil {
		return err
	}
	path := filepath.Join(sdir, persist.WALName)
	b, rerr := os.ReadFile(path)
	if rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
		return rerr
	}
	rep := persist.VerifyWALImage(b, &expect)
	if len(rep.Bad) == 0 && !rep.HeadMismatch {
		// A torn tail past the seal is crash damage, recovery's concern;
		// nothing here is rot.
		return nil
	}
	for _, bad := range rep.Bad {
		r.flight(shard, persist.Finding{
			Path: path, Class: bad.Class, Detail: bad.Detail, FromLSN: bad.FromLSN, ToLSN: bad.ToLSN,
		})
	}
	if rep.HeadMismatch {
		r.flight(shard, persist.Finding{
			Path: path, Class: persist.ClassWALChainPoint, Detail: "sealed head unreachable from local records",
		})
	}
	img, err := r.fetch(FetchReq{File: FetchWAL, Shard: uint32(shard)})
	if err != nil {
		return fmt.Errorf("wal unrepairable: %w", err)
	}
	check := persist.VerifyWALImage(img, &expect)
	if len(check.Bad) != 0 || check.HeadMismatch || check.TornTail {
		return fmt.Errorf("peer wal does not reproduce sealed chain head %.12s", man.ChainHead)
	}
	return persist.WriteFileDurable(nil, path, img)
}

// repairSnapshot replaces the manifest-covered snapshot when any chunk
// fails its sealed leaf. The peer's copy is installed only if it has
// exactly the sealed length and matches every sealed leaf, and so the
// root.
func (r *repairer) repairSnapshot(sdir string, shard int, man *persist.Manifest) error {
	if man.SnapshotSeq == 0 {
		return nil
	}
	path := filepath.Join(sdir, persist.SnapFileName(man.SnapshotSeq))
	b, rerr := os.ReadFile(path)
	if rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
		return rerr
	}
	bad := persist.SnapshotBadChunks(man, b)
	if len(bad) == 0 && int64(len(b)) == man.SnapshotBytes {
		return nil
	}
	r.flight(shard, persist.Finding{
		Path: path, Class: persist.ClassSnapshotChunk, Seq: man.SnapshotSeq, Chunks: bad,
		Detail: fmt.Sprintf("%d of %d chunks fail the manifest leaves", len(bad), len(man.SnapshotLeaves)),
	})
	nb, err := r.fetch(FetchReq{File: FetchSnapshot, Shard: uint32(shard), Seq: man.SnapshotSeq})
	if err != nil {
		return fmt.Errorf("snapshot unrepairable: %w", err)
	}
	if int64(len(nb)) != man.SnapshotBytes {
		return fmt.Errorf("peer snapshot is %d bytes, manifest seals %d", len(nb), man.SnapshotBytes)
	}
	if still := persist.SnapshotBadChunks(man, nb); len(still) != 0 {
		return fmt.Errorf("peer snapshot chunks %v fail the sealed leaves", still)
	}
	return persist.WriteFileDurable(nil, path, nb)
}

// dropRottedStaleSnapshots removes fallback snapshots (sequences the
// manifest does not cover) whose envelopes fail — they cannot be
// authenticated or repaired, and recovery never needs them once the
// covered snapshot verifies.
func (r *repairer) dropRottedStaleSnapshots(sdir string, shard int, man *persist.Manifest) error {
	v := persist.VerifyDir(nil, sdir)
	for _, f := range v.Findings {
		if f.Class == persist.ClassSnapshotChunk && f.Seq != 0 && f.Seq != man.SnapshotSeq {
			r.flight(shard, f)
			if err := os.Remove(filepath.Join(sdir, persist.SnapFileName(f.Seq))); err != nil {
				return err
			}
		}
	}
	return nil
}
