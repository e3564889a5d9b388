package engine

import (
	"testing"

	"repro/internal/core"
)

// TestPeekMin covers the non-destructive global-minimum read that backs
// the cluster's cross-node strict merge: empty engine, min across
// shards, stability across repeated peeks, and tracking as pops drain.
// It runs under the served tree's kind name.
func TestPeekMin(t *testing.T) { t.Run(manifestKind, testPeekMin) }

func testPeekMin(t *testing.T) {
	e, err := New(smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	if _, ok := e.PeekMin(); ok {
		t.Fatal("PeekMin on an empty engine reported a head")
	}

	// Least-count pushes spread these across shards; the peek must
	// merge to the global minimum.
	vals := []uint64{40000, 7, 65535, 20000, 300}
	for i, v := range vals {
		if res := e.Submit([]Op{PushOp(core.Element{Value: v, Meta: uint64(i)})}); res[0].Err != nil {
			t.Fatalf("push %d: %v", v, res[0].Err)
		}
	}
	for i := 0; i < 3; i++ { // non-destructive: stable across reads
		el, ok := e.PeekMin()
		if !ok || el.Value != 7 {
			t.Fatalf("peek %d = %+v ok=%v, want 7", i, el, ok)
		}
	}
	if e.Len() != len(vals) {
		t.Fatalf("peek consumed elements: len %d", e.Len())
	}

	// Each pop moves the head to the next global minimum.
	for _, want := range []uint64{7, 300, 20000} {
		res := e.Submit([]Op{PopOp()})
		if res[0].Err != nil || res[0].Elem.Value != want {
			t.Fatalf("pop = %+v, want %d", res[0], want)
		}
	}
	if el, ok := e.PeekMin(); !ok || el.Value != 40000 {
		t.Fatalf("peek after pops = %+v ok=%v, want 40000", el, ok)
	}
}
