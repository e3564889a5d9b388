// Filesystem seam: the Manager writes through an FS so the crash
// harness can interpose a byte-budget kill simulator (crashfile.go)
// while production paths use the real os package.

package persist

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// File is the writable-file surface the WAL and snapshot writers need.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS abstracts the handful of filesystem operations the Manager
// performs. OSFS is the real implementation; CrashDisk wraps it with a
// byte budget and torn-write semantics.
type FS interface {
	MkdirAll(dir string) error
	// OpenAppend opens (creating if needed) a file for appending.
	OpenAppend(name string) (File, error)
	// Create truncates/creates a file for writing.
	Create(name string) (File, error)
	Rename(oldname, newname string) error
	Remove(name string) error
	// Open opens a file for reading; snapshots stream through it.
	Open(name string) (io.ReadCloser, error)
	ReadFile(name string) ([]byte, error)
	// ReadDirNames lists the file names (not paths) in dir, sorted.
	ReadDirNames(dir string) ([]string, error)
	Truncate(name string, size int64) error
	// SyncDir makes dir's entries durable: a rename into it survives a
	// power loss only once the directory is synced.
	SyncDir(dir string) error
}

// OSFS is the pass-through FS over the os package.
type OSFS struct{}

// MkdirAll creates dir and parents.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// OpenAppend opens name for appending, creating it if absent.
func (OSFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Create creates/truncates name for writing.
func (OSFS) Create(name string) (File, error) { return os.Create(name) }

// Rename renames a file.
func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove deletes a file.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// Open opens name for reading.
func (OSFS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }

// ReadFile reads a whole file.
func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// ReadDirNames lists dir's entries, sorted by name.
func (OSFS) ReadDirNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// Truncate truncates name to size bytes.
func (OSFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// SyncDir fsyncs a directory.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFileDurable installs b at path so that a crash at any point
// leaves the old file or the new one, never a torn one: it writes a
// temporary file beside path, fsyncs it, renames it over path, then
// fsyncs the directory so the rename itself is durable. A nil fsys is
// the real os package.
func WriteFileDurable(fsys FS, path string, b []byte) error {
	if fsys == nil {
		fsys = OSFS{}
	}
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// join is filepath.Join, aliased so manager.go reads cleanly.
func join(dir, name string) string { return filepath.Join(dir, name) }
