package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	bmw "repro"
)

// exactQueues are the accurate PIFOs: every pop must return the
// reference minimum.
var exactQueues = map[string]bool{"bmwtree": true, "pifo": true, "pheap": true, "pipeheap": true}

// TestRun records a small trace per rank pattern and replays it on
// every queue bmwtrace knows. A nil error means every popped element
// was one the queue had accepted (doReplay mirrors the contents in an
// exact reference). The exact queues pop no non-minimal element, so
// their displacement above the minimum is 0, and no queue refuses a
// push: the traces stay under 513 in flight, far below every queue's
// 8190-slot capacity, where AIFO admits every packet too.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	queues := []string{"bmwtree", "pifo", "pheap", "pipeheap", "sppifo", "aifo", "calendarq", "gearbox"}
	for _, pattern := range []string{"bursty", "uniform", "monotone"} {
		trace := filepath.Join(dir, pattern+".jsonl")
		if err := doRecord(trace, 4000, pattern, 7); err != nil {
			t.Fatal(err)
		}
		for _, q := range queues {
			n, err := doReplay(trace, q, "")
			if err != nil {
				t.Fatalf("%s/%s: %v", pattern, q, err)
			}
			if n.pushes == 0 || n.pops == 0 || n.pops > n.pushes {
				t.Errorf("%s/%s: %d pushes, %d pops", pattern, q, n.pushes, n.pops)
			}
			if n.drops != 0 {
				t.Errorf("%s/%s: %d drops", pattern, q, n.drops)
			}
			if exactQueues[q] && (n.nonMin != 0 || n.displaced != 0) {
				t.Errorf("%s/%s: %d non-minimal pops displaced by %d from an exact queue",
					pattern, q, n.nonMin, n.displaced)
			}
			if (n.nonMin == 0) != (n.displaced == 0) {
				t.Errorf("%s/%s: %d non-minimal pops displaced by %d in total", pattern, q, n.nonMin, n.displaced)
			}
		}
	}

	// -metrics-out counts what the replay counted.
	out := filepath.Join(dir, "metrics.json")
	n, err := doReplay(filepath.Join(dir, "bursty.jsonl"), "bmwtree", out)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap bmw.MetricsSnapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counter("bmwtree_pushes_total"); got != n.pushes {
		t.Errorf("bmwtree_pushes_total %d, replay counted %d", got, n.pushes)
	}
	if got := snap.Counter("bmwtree_pops_total"); got != n.pops {
		t.Errorf("bmwtree_pops_total %d, replay counted %d", got, n.pops)
	}
}
