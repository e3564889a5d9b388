package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRun is the harness verdict at reduced size: two corruptions per
// class, so every class lands once on each victim, must all be
// detected, classified, repaired bit-identically and drained exactly.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	n := 2 * len(classes)
	if err := run(n, 2, 100, 1, dir, false); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "bmwrot.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ev evidence
	if err := json.Unmarshal(b, &ev); err != nil {
		t.Fatal(err)
	}
	if !ev.Pass || ev.Escapes != 0 || ev.Failures != 0 {
		t.Fatalf("pass=%v escapes=%d failures=%d, want a clean pass", ev.Pass, ev.Escapes, ev.Failures)
	}
	if len(ev.Trials) != n {
		t.Fatalf("%d trials recorded, want %d", len(ev.Trials), n)
	}
	victims := map[string]map[string]bool{}
	for _, tr := range ev.Trials {
		if victims[tr.Class] == nil {
			victims[tr.Class] = map[string]bool{}
		}
		victims[tr.Class][tr.Node] = true
	}
	for _, c := range classes {
		if ev.ByClass[c] != 2 {
			t.Errorf("class %s ran %d times, want 2", c, ev.ByClass[c])
		}
		if !victims[c]["primary"] || !victims[c]["follower"] {
			t.Errorf("class %s hit victims %v, want both", c, victims[c])
		}
	}
	if len(ev.ByClass) != len(classes) {
		t.Errorf("by_class names %d classes, want %d", len(ev.ByClass), len(classes))
	}
}
