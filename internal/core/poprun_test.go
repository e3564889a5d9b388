package core

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/obs"
)

// TestPopRunLockstep runs PopRun against a twin tree that calls Pop per
// op, on every walk the fuzz target covers (the run walk at m = 4, the
// per-op loop otherwise). The tape sweeps between empty and full, so
// runs start, stop and run dry at both edges; its ranks alternate
// between a narrow range, where nearly every comparison is a tie, and
// the full 64-bit range with MaxUint64 one push in sixteen, the case
// where the branch-free scan falls back. Runs are 1 to 300 pops long
// under a random bound: none, below the head, at MaxUint64-1, or a rank
// drawn like the pushes. Every popped element, the sojourn histogram,
// SubtreeCounts() and the op counters must agree after each run, and
// the encoded snapshots at every edge and every 64th step.
func TestPopRunLockstep(t *testing.T) {
	for _, shape := range []struct{ m, l int }{{2, 6}, {3, 4}, {4, 3}, {4, 5}, {8, 3}} {
		run, twin := New(shape.m, shape.l), New(shape.m, shape.l)
		run.Instrument(obs.NewRegistry(), "run")
		twin.Instrument(obs.NewRegistry(), "twin")
		rng := rand.New(rand.NewSource(int64(shape.m*10 + shape.l)))
		rank := func(narrow bool) uint64 {
			switch v := rng.Uint64(); {
			case narrow:
				return v % 8
			case rng.Intn(16) == 0:
				return math.MaxUint64
			default:
				return v
			}
		}
		out := make([]Element, 300)
		filling, narrow, edges := true, true, 0
		for step := 0; edges < 100; step++ {
			if step == 1<<18 {
				t.Fatalf("m=%d: %d edges in %d steps", shape.m, edges, step)
			}
			switch {
			case run.AlmostFull() && filling:
				filling = false
				edges++
				samePayload(t, run, twin, step)
			case run.Len() == 0 && !filling:
				filling, narrow = true, !narrow
				edges++
				samePayload(t, run, twin, step)
			}
			if filling {
				for k := rng.Intn(run.Cap()/4 + 1); k >= 0 && !run.AlmostFull(); k-- {
					e := Element{Value: rank(narrow), Meta: uint64(step<<16 | k)}
					if err, terr := run.Push(e), twin.Push(e); err != nil || terr != nil {
						t.Fatalf("m=%d step %d: push %v / %v", shape.m, step, err, terr)
					}
				}
				if rng.Intn(3) != 0 {
					continue
				}
			}
			bound := uint64(math.MaxUint64)
			switch rng.Intn(4) {
			case 0:
				bound = rank(narrow)
			case 1:
				if head, err := run.Peek(); err == nil && head.Value > 0 {
					bound = head.Value - 1
				}
			case 2:
				bound = math.MaxUint64 - 1
			}
			want := 1 + rng.Intn(len(out))
			if filling {
				want = 1 + rng.Intn(8)
			}
			n := run.PopRun(out[:want], bound)
			for i := 0; i <= n && i < want; i++ {
				head, err := twin.Peek()
				if err != nil || head.Value > bound {
					if i < n {
						t.Fatalf("m=%d step %d: run popped %+v at %d, twin stops (head %+v, %v, bound %d)",
							shape.m, step, out[i], i, head, err, bound)
					}
					break
				}
				if i == n {
					t.Fatalf("m=%d step %d: run stopped at %d of %d, twin head %d under bound %d",
						shape.m, step, n, want, head.Value, bound)
				}
				if e, err := twin.Pop(); err != nil || e != out[i] {
					t.Fatalf("m=%d step %d: run popped %+v at %d, twin %+v (%v)", shape.m, step, out[i], i, e, err)
				}
			}
			if a, b := run.SubtreeCounts(), twin.SubtreeCounts(); !slices.Equal(a, b) {
				t.Fatalf("m=%d step %d: root counters %v (run) vs %v (per-op)", shape.m, step, a, b)
			}
			if a, b := run.SojournSnapshot(), twin.SojournSnapshot(); !reflect.DeepEqual(a, b) {
				t.Fatalf("m=%d step %d: sojourns %+v (run) vs %+v (per-op)", shape.m, step, a, b)
			}
			if ap, aq := run.OpStats(); ap != twin.pushes || aq != twin.pops || run.Len() != twin.Len() {
				t.Fatalf("m=%d step %d: ops %d/%d len %d (run) vs %d/%d len %d", shape.m, step,
					ap, aq, run.Len(), twin.pushes, twin.pops, twin.Len())
			}
			if step%64 == 0 {
				samePayload(t, run, twin, step)
				if err := run.CheckInvariants(); err != nil {
					t.Fatalf("m=%d step %d: %v", shape.m, step, err)
				}
			}
		}
		if err := run.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func samePayload(t *testing.T, a, b *Tree, step int) {
	t.Helper()
	pa := snapshotPayload(a)
	pb := snapshotPayload(b)
	if !bytes.Equal(pa, pb) {
		t.Fatalf("m=%d step %d: snapshots differ (run vs per-op)", a.m, step)
	}
}
