package engine

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBareQueuesDocumentSingleGoroutineContract asserts that the bare
// queue the engine shards over, core.Tree, documents its intentional
// single-goroutine design. It models hardware with one issue port per
// cycle and deliberately carries no synchronization; the engine is the
// only concurrency boundary. If the contract sentence disappears from
// its documentation, this test fails so the concurrency story stays
// written down next to the code it governs.
func TestBareQueuesDocumentSingleGoroutineContract(t *testing.T) {
	const phrase = "single goroutine"
	f := filepath.Join("..", "core", "core.go")
	b, err := os.ReadFile(f)
	if err != nil {
		t.Fatalf("read %s: %v", f, err)
	}
	if !strings.Contains(strings.ToLower(string(b)), phrase) {
		t.Errorf("%s does not document the %q contract", f, phrase)
	}
}
