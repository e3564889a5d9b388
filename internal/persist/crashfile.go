// CrashDisk: an FS wrapper that simulates a process death at an exact
// byte of write traffic, including the torn-write behaviour of a real
// crash.
//
// The disk carries a global byte budget. Writes consume it; the write
// that exhausts it lands partially (its prefix reaches the file) and
// the disk "dies": that write and every later write, sync, rename or
// remove fails with ErrKilled. At the moment of death every open file
// is torn — its unsynced suffix is truncated to a pseudo-random length,
// modelling the page-cache bytes a real crash loses. Bytes before the
// last successful Sync are never lost, which is exactly the durability
// an fsync buys.
//
// Because budgets are sampled over the whole byte stream of a run, kill
// points land everywhere: mid-WAL-record, between group commits, in the
// middle of a snapshot payload, and between a snapshot's write and its
// rename.

package persist

import (
	"errors"
	"io"
	"math/rand"
	"os"
)

// ErrKilled is returned by every CrashDisk operation after the byte
// budget is exhausted — the simulated process death. It is permanent:
// retry classifiers must treat it as non-transient (the default nil
// classifier does).
var ErrKilled = errors.New("persist: simulated crash (byte budget exhausted)")

// CrashDisk implements FS with a byte-budget kill switch.
type CrashDisk struct {
	inner  OSFS
	budget int64 // remaining write bytes; <0 = unlimited
	killed bool
	rng    *rand.Rand
	open   []*crashFile
	// written counts payload bytes accepted across all files, so a
	// calibration run can report the total a budget is sampled from.
	written int64
}

// NewCrashDisk builds a disk that dies after budget written bytes
// (budget < 0 never dies — the calibration mode). seed drives the torn
// tail lengths.
func NewCrashDisk(budget int64, seed int64) *CrashDisk {
	return &CrashDisk{budget: budget, rng: rand.New(rand.NewSource(seed))}
}

// Killed reports whether the simulated crash has happened.
func (d *CrashDisk) Killed() bool { return d.killed }

// BytesWritten returns the total bytes accepted by Write calls.
func (d *CrashDisk) BytesWritten() int64 { return d.written }

// kill marks the disk dead and tears every open file: the unsynced
// suffix of each is cut at a random point, the synced prefix survives.
func (d *CrashDisk) kill() {
	if d.killed {
		return
	}
	d.killed = true
	for _, f := range d.open {
		f.tear(d.rng)
	}
}

// crashFile wraps one real file with synced/written bookkeeping.
type crashFile struct {
	f      *os.File
	name   string
	size   int64
	synced int64
}

// tear truncates the file to its synced prefix plus a random portion of
// the unsynced bytes.
func (f *crashFile) tear(rng *rand.Rand) {
	if f.f == nil {
		return
	}
	unsynced := f.size - f.synced
	keep := f.synced
	if unsynced > 0 {
		keep += rng.Int63n(unsynced + 1)
	}
	_ = f.f.Truncate(keep)
	f.size = keep
}

// MkdirAll forwards; directory metadata is outside the crash model.
func (d *CrashDisk) MkdirAll(dir string) error { return d.inner.MkdirAll(dir) }

// OpenAppend opens a tracked file for appending.
func (d *CrashDisk) OpenAppend(name string) (File, error) {
	if d.killed {
		return nil, ErrKilled
	}
	f, err := os.OpenFile(name, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return d.track(f, name)
}

// Create opens a tracked file, truncating any previous contents.
func (d *CrashDisk) Create(name string) (File, error) {
	if d.killed {
		return nil, ErrKilled
	}
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return d.track(f, name)
}

// track registers an open file with the disk.
func (d *CrashDisk) track(f *os.File, name string) (File, error) {
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	cf := &crashFile{f: f, name: name, size: st.Size(), synced: st.Size()}
	d.open = append(d.open, cf)
	return &trackedFile{d: d, f: cf}, nil
}

// Rename fails after death: a crash between a snapshot's write and its
// rename leaves the temporary file behind, never the final name.
func (d *CrashDisk) Rename(oldname, newname string) error {
	if d.killed {
		return ErrKilled
	}
	return d.inner.Rename(oldname, newname)
}

// Remove fails after death.
func (d *CrashDisk) Remove(name string) error {
	if d.killed {
		return ErrKilled
	}
	return d.inner.Remove(name)
}

// Open, ReadFile and ReadDirNames pass through: recovery reads with a
// fresh FS after the "reboot", and the manager's open-time scan happens
// before any budget is spent.
func (d *CrashDisk) Open(name string) (io.ReadCloser, error) { return d.inner.Open(name) }

// ReadFile reads a whole file.
func (d *CrashDisk) ReadFile(name string) ([]byte, error) { return d.inner.ReadFile(name) }

// ReadDirNames lists dir's entries.
func (d *CrashDisk) ReadDirNames(dir string) ([]string, error) { return d.inner.ReadDirNames(dir) }

// Truncate passes through (the manager only truncates torn tails during
// recovery, before writing anything).
func (d *CrashDisk) Truncate(name string, size int64) error {
	if d.killed {
		return ErrKilled
	}
	return d.inner.Truncate(name, size)
}

// SyncDir fails after death and is otherwise a no-op: directory
// metadata is outside the crash model, so a rename that returned is
// durable here, and a rename lost after it returned is not modelled.
func (d *CrashDisk) SyncDir(dir string) error {
	if d.killed {
		return ErrKilled
	}
	return nil
}

// trackedFile is the File handed to the Manager.
type trackedFile struct {
	d *CrashDisk
	f *crashFile
}

// Write spends the disk's byte budget. When the budget runs out
// mid-buffer the prefix that fit is written for real — the torn write —
// and the disk dies.
func (t *trackedFile) Write(p []byte) (int, error) {
	d := t.d
	if d.killed {
		return 0, ErrKilled
	}
	n := len(p)
	if d.budget >= 0 && int64(n) > d.budget {
		n = int(d.budget)
	}
	if n > 0 {
		wn, err := t.f.f.Write(p[:n])
		t.f.size += int64(wn)
		d.written += int64(wn)
		if d.budget >= 0 {
			d.budget -= int64(wn)
		}
		if err != nil {
			return wn, err
		}
	}
	if n < len(p) {
		d.kill()
		return n, ErrKilled
	}
	return n, nil
}

// Sync marks the file's current contents durable: they survive the
// tear. The real fsync is skipped — the harness runs in-process, so
// page-cache visibility is enough and trials stay fast.
func (t *trackedFile) Sync() error {
	if t.d.killed {
		return ErrKilled
	}
	t.f.synced = t.f.size
	return nil
}

// Close closes the real file but keeps the tear bookkeeping: a closed
// unsynced file can still lose bytes in the crash, exactly like a real
// close without fsync.
func (t *trackedFile) Close() error {
	if t.d.killed {
		return ErrKilled
	}
	// Reopen-on-tear is unnecessary: keep the handle for truncation and
	// let process exit reap it (trials are short-lived).
	return nil
}
