package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileDurableCrashCuts installs a good copy over a rotted
// snapshot and a rotted WAL through a CrashDisk that dies after every
// possible number of written bytes. After each death the file on disk
// must be the old one (VerifyDir still reports the rot) or the new one
// (VerifyDir clean), never a torn mix. CrashDisk kills on write bytes
// only, and keeps directory metadata outside its model: a rename that
// returned is durable there, so it cannot show a rename lost after the
// fact — the directory fsync WriteFileDurable ends with is what guards
// that case on a real disk.
func TestWriteFileDurableCrashCuts(t *testing.T) {
	dir := t.TempDir()
	q := &toyQueue{}
	m, _, err := Open(dir, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 40; i++ {
		if err := q.push(m, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if r := VerifyDir(nil, dir); !r.Clean() {
		t.Fatalf("fresh checkpoint not clean: %v", r.Findings)
	}

	for _, name := range []string{snapName(1), WALName} {
		path := filepath.Join(dir, name)
		good, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rotted := append([]byte(nil), good...)
		rotted[len(rotted)/2] ^= 0x10
		for budget := 0; budget <= len(good); budget++ {
			if err := os.WriteFile(path, rotted, 0o644); err != nil {
				t.Fatal(err)
			}
			err := WriteFileDurable(NewCrashDisk(int64(budget), int64(budget)), path, good)
			if budget < len(good) && !errors.Is(err, ErrKilled) {
				t.Fatalf("%s, cut at %d of %d bytes: err %v, want ErrKilled", name, budget, len(good), err)
			}
			if budget == len(good) && err != nil {
				t.Fatalf("%s: full budget: %v", name, err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			r := VerifyDir(nil, dir)
			switch {
			case bytes.Equal(got, good):
				if !r.Clean() {
					t.Fatalf("%s, cut at %d: new file installed but VerifyDir finds %v", name, budget, r.Findings)
				}
			case bytes.Equal(got, rotted):
				if budget == len(good) {
					t.Fatalf("%s: completed install left the old file", name)
				}
				if len(r.Findings) != 1 || r.Findings[0].Path != path {
					t.Fatalf("%s, cut at %d: old file kept but VerifyDir finds %v", name, budget, r.Findings)
				}
			default:
				t.Fatalf("%s, cut at %d: %d bytes on disk are neither the old file nor the new one", name, budget, len(got))
			}
		}
	}
}
