// Background integrity scrub: walk persistence directories verifying
// manifests, WAL hash chains and snapshot Merkle roots, io-throttled so
// a multi-gigabyte checkpoint fan-out never competes with the serving
// path, and resumable — the cursor survives between steps so a stopped
// scrub continues where it left off instead of re-reading from zero.
//
// VerifyDir is the underlying one-directory audit; recovery, the
// scrubber, anti-entropy repair and the bmwrot harness all classify
// corruption through it, so a detection always carries the same class
// vocabulary (chain.go's Class* constants) wherever it surfaces.

package persist

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"time"

	"repro/internal/obs"
)

// Finding is one localised integrity fault in a directory.
type Finding struct {
	Path    string `json:"path"`
	Class   string `json:"class"`
	Detail  string `json:"detail"`
	FromLSN uint64 `json:"from_lsn,omitempty"`
	ToLSN   uint64 `json:"to_lsn,omitempty"`
	Seq     uint64 `json:"seq,omitempty"`
	Chunks  []int  `json:"chunks,omitempty"`
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s: %s", f.Class, f.Path)
	if f.ToLSN > 0 {
		s += fmt.Sprintf(" LSNs %d-%d", f.FromLSN, f.ToLSN)
	}
	if len(f.Chunks) > 0 {
		s += fmt.Sprintf(" chunks %v", f.Chunks)
	}
	if f.Detail != "" {
		s += " (" + f.Detail + ")"
	}
	return s
}

// DirReport is the outcome of one directory audit.
type DirReport struct {
	Dir      string
	Manifest *Manifest        // nil when absent or invalid
	WAL      *WALVerifyReport // nil when the log was unreadable
	Findings []Finding
	Files    int
	Bytes    int64
}

// Clean reports no integrity faults (a torn WAL tail alone is clean:
// that is crash damage, handled by recovery, not rot).
func (r *DirReport) Clean() bool { return len(r.Findings) == 0 }

// VerifyDir audits one persistence directory: manifest self-checksum
// and field validity, WAL framing + hash chain against the manifest's
// sealed head, and every snapshot's envelope (plus Merkle root and
// chunk localisation for the manifest-covered snapshot). It only
// reads; nothing is truncated or repaired.
func VerifyDir(fsys FS, dir string) *DirReport {
	if fsys == nil {
		fsys = OSFS{}
	}
	r := &DirReport{Dir: dir}

	var expect *ChainState
	man, manErr := LoadManifest(fsys, dir)
	switch {
	case manErr == nil:
		r.Manifest = man
		r.Files++
		if h, err := man.Head(); err == nil {
			expect = &h
		}
	case errors.Is(manErr, fs.ErrNotExist):
		// Legacy directory: nothing seals it; verify what self-verifies.
	default:
		r.Files++
		r.Findings = append(r.Findings, Finding{
			Path: join(dir, ManifestName), Class: ClassManifest, Detail: manErr.Error(),
		})
	}

	walPath := join(dir, walName)
	b, err := fsys.ReadFile(walPath)
	switch {
	case err == nil:
		r.Files++
		r.Bytes += int64(len(b))
		rep := VerifyWALImage(b, expect)
		r.WAL = rep
		for _, bad := range rep.Bad {
			r.Findings = append(r.Findings, Finding{
				Path: walPath, Class: bad.Class, Detail: bad.Detail,
				FromLSN: bad.FromLSN, ToLSN: bad.ToLSN,
			})
		}
	case errors.Is(err, fs.ErrNotExist):
		if expect != nil && expect.LSN > 0 {
			r.Findings = append(r.Findings, Finding{
				Path: walPath, Class: ClassWALTruncated,
				Detail:  "log missing",
				FromLSN: 1, ToLSN: expect.LSN,
			})
		}
	default:
		r.Findings = append(r.Findings, Finding{
			Path: walPath, Class: ClassWALRecord, Detail: "read: " + err.Error(),
		})
	}

	names, _ := fsys.ReadDirNames(dir)
	manifestSeqSeen := false
	for _, name := range names {
		seq, ok := parseSnapName(name)
		if !ok {
			continue
		}
		path := join(dir, name)
		var sc snapScanner
		if man != nil && seq == man.SnapshotSeq {
			manifestSeqSeen = true
			sc.man = man // a leaf match authenticates the file bit-for-bit
		}
		res, err := sc.scanFile(fsys, path)
		if err != nil {
			r.Findings = append(r.Findings, Finding{
				Path: path, Class: ClassSnapshotChunk, Seq: seq, Detail: "read: " + err.Error(),
			})
			continue
		}
		r.Files++
		r.Bytes += res.size
		switch {
		case len(res.bad) > 0:
			r.Findings = append(r.Findings, Finding{
				Path: path, Class: ClassSnapshotChunk, Seq: seq, Chunks: res.bad,
				Detail: fmt.Sprintf("%d of %d chunks fail the manifest leaves", len(res.bad), len(man.SnapshotLeaves)),
			})
		case res.err != nil:
			r.Findings = append(r.Findings, Finding{
				Path: path, Class: ClassSnapshotChunk, Seq: seq, Detail: res.err.Error(),
			})
		}
	}
	if man != nil && man.SnapshotSeq != 0 && !manifestSeqSeen {
		r.Findings = append(r.Findings, Finding{
			Path: join(dir, snapName(man.SnapshotSeq)), Class: ClassSnapshotChunk,
			Seq: man.SnapshotSeq, Detail: "manifest-covered snapshot missing",
		})
	}
	return r
}

// ScrubConfig tunes a Scrubber.
type ScrubConfig struct {
	// FS is the filesystem seam; nil uses the os package.
	FS FS
	// Dirs are the persistence directories to walk, in cursor order
	// (for an engine checkpoint: every shard directory).
	Dirs []string
	// RateBytes caps verification throughput in bytes/second by
	// sleeping after each directory. 0 disables the throttle.
	RateBytes int64
	// Metrics receives the persist_scrub_* instruments under Prefix
	// (default "persist").
	Metrics *obs.Registry
	Prefix  string
	// Flight receives one FlightIntegrity event per finding.
	Flight *obs.FlightRecorder
	// OnCorruption fires once per scrubber lifetime, on the first dirty
	// directory — the incident-capture trigger.
	OnCorruption func(dir string, findings []Finding)
	// Sleep replaces time.Sleep for the throttle (tests).
	Sleep func(time.Duration)
}

// Scrubber is a resumable, throttled integrity walker. Step verifies
// one directory and advances the cursor; a full cycle of Steps is one
// pass. Safe for use from a single background goroutine; the cursor
// and counters tolerate concurrent readers.
type Scrubber struct {
	cfg ScrubConfig

	mu     sync.Mutex
	cursor int
	fired  bool

	passes      *obs.Counter
	dirs        *obs.Counter
	bytes       *obs.Counter
	corruptions *obs.Counter
	chainPoints *obs.Counter
	progress    *obs.Gauge
}

// NewScrubber builds a scrubber over cfg.Dirs.
func NewScrubber(cfg ScrubConfig) *Scrubber {
	if cfg.FS == nil {
		cfg.FS = OSFS{}
	}
	if cfg.Prefix == "" {
		cfg.Prefix = "persist"
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	s := &Scrubber{cfg: cfg}
	if reg := cfg.Metrics; reg != nil {
		p := cfg.Prefix
		s.passes = reg.Counter(p + "_scrub_passes_total")
		s.dirs = reg.Counter(p + "_scrub_dirs_total")
		s.bytes = reg.Counter(p + "_scrub_bytes_total")
		s.corruptions = reg.Counter(p + "_scrub_corruptions_total")
		s.chainPoints = reg.Counter(p + "_scrub_chain_points_total")
		reg.Help(p+"_scrub_progress", "fraction of the current scrub pass completed")
		s.progress = reg.Gauge(p + "_scrub_progress")
	}
	return s
}

// Cursor returns the index of the next directory to verify.
func (s *Scrubber) Cursor() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cursor
}

// Step verifies the directory under the cursor and advances it,
// wrapping (and counting a completed pass) at the end of the list.
// Returns nil when there is nothing to scrub.
func (s *Scrubber) Step() *DirReport {
	s.mu.Lock()
	if len(s.cfg.Dirs) == 0 {
		s.mu.Unlock()
		return nil
	}
	i := s.cursor
	dir := s.cfg.Dirs[i]
	s.mu.Unlock()

	r := VerifyDir(s.cfg.FS, dir)
	s.dirs.Inc()
	s.bytes.Add(uint64(r.Bytes))
	if r.WAL != nil {
		s.chainPoints.Add(uint64(r.WAL.ChainPoints))
	}
	if !r.Clean() {
		s.corruptions.Add(uint64(len(r.Findings)))
		if s.cfg.Flight != nil {
			for _, f := range r.Findings {
				s.cfg.Flight.RecordMsg(obs.FlightIntegrity, 0, f.String(), f.FromLSN, f.ToLSN, f.Seq)
			}
		}
		s.mu.Lock()
		fire := !s.fired && s.cfg.OnCorruption != nil
		s.fired = true
		s.mu.Unlock()
		if fire {
			s.cfg.OnCorruption(dir, r.Findings)
		}
	}

	s.mu.Lock()
	s.cursor = (i + 1) % len(s.cfg.Dirs)
	if s.cursor == 0 {
		s.passes.Inc()
	}
	s.progress.Set(float64(s.cursor) / float64(len(s.cfg.Dirs)))
	s.mu.Unlock()

	if s.cfg.RateBytes > 0 && r.Bytes > 0 {
		s.cfg.Sleep(time.Duration(float64(r.Bytes) / float64(s.cfg.RateBytes) * float64(time.Second)))
	}
	return r
}

// Pass runs one full pass from the current cursor position and returns
// every directory's report.
func (s *Scrubber) Pass() []*DirReport {
	n := len(s.cfg.Dirs)
	reports := make([]*DirReport, 0, n)
	for i := 0; i < n; i++ {
		if r := s.Step(); r != nil {
			reports = append(reports, r)
		}
	}
	return reports
}
