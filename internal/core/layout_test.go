package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/obs"
)

// slowPush and slowPop apply one operation through the runtime-M walks,
// whatever the tree's order: the golden model the fixed-width walk is
// held to.
func slowPush(t *Tree, e Element) error {
	if t.AlmostFull() {
		return ErrFull
	}
	t.push(e, 0)
	return nil
}

func slowPop(t *Tree) (Element, uint64, error) {
	if t.Len() == 0 {
		return Element{}, 0, ErrEmpty
	}
	e, sojourn := t.pop(0)
	return e, sojourn, nil
}

// TestLayoutLockstep runs the fixed-width m = 4 walk against the
// runtime-M walk on one tape of 2^20 ops per shape. The tape sweeps
// between empty and full, so both edges (ErrFull, ErrEmpty, the last
// slot parked, the last element lifted) recur some fifty times on the
// six-level tree and thousands of times on the three-level one, and its
// ranks alternate between a narrow range, where nearly every comparison
// is a tie, and the full 64-bit range, max included.
// Every popped (Value, Meta), every sojourn, every SubtreeCounts() and,
// at each edge, the encoded snapshot must agree.
func TestLayoutLockstep(t *testing.T) {
	for _, shape := range []struct{ m, l int }{{4, 3}, {4, 6}} {
		fast, slow := New(shape.m, shape.l), New(shape.m, shape.l)
		rng := rand.New(rand.NewSource(int64(shape.m)))
		filling, narrow := true, true
		for op := 0; op < 1<<20; op++ {
			switch {
			case fast.AlmostFull():
				filling = false
				sameSnapshot(t, fast, slow, op)
			case fast.Len() == 0:
				filling, narrow = true, !narrow
				sameSnapshot(t, fast, slow, op)
			}
			if (rng.Intn(4) != 0) == filling {
				v := rng.Uint64()
				switch {
				case narrow:
					v %= 8
				case rng.Intn(16) == 0:
					v = math.MaxUint64
				}
				e := Element{Value: v, Meta: uint64(op)}
				if ef, es := fast.Push(e), slowPush(slow, e); ef != es {
					t.Fatalf("m=%d op %d: push errors %v (fast) vs %v (runtime-M)", shape.m, op, ef, es)
				}
			} else {
				ef, jf, errf := Element{}, uint64(0), ErrEmpty
				if fast.Len() > 0 {
					ef, jf = fast.pop(fast.m)
					errf = nil
				}
				es, js, errs := slowPop(slow)
				if ef != es || jf != js || errf != errs {
					t.Fatalf("m=%d op %d: pop %+v sojourn %d err %v (fast) vs %+v sojourn %d err %v (runtime-M)",
						shape.m, op, ef, jf, errf, es, js, errs)
				}
			}
			if cf, cs := fast.SubtreeCounts(), slow.SubtreeCounts(); !slices.Equal(cf, cs) {
				t.Fatalf("m=%d op %d: root counters %v (fast) vs %v (runtime-M)", shape.m, op, cf, cs)
			}
		}
		if err := fast.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		sameSnapshot(t, fast, slow, 1<<20)
	}
}

func sameSnapshot(t *testing.T, fast, slow *Tree, op int) {
	t.Helper()
	a := snapshotPayload(fast)
	b := snapshotPayload(slow)
	if !bytes.Equal(a, b) {
		t.Fatalf("m=%d op %d: snapshots differ (fast vs runtime-M)", fast.m, op)
	}
}

// BenchmarkWalkWidth compares the fixed-width m = 4 walk with the
// runtime-M walk on the same layout and the same tape: rounds of 32
// pushes and 32 pops at half fill, ranks uniform on 30 bits.
func BenchmarkWalkWidth(b *testing.B) {
	for _, w := range []int{4, 0} {
		name := "fixed"
		if w == 0 {
			name = "runtime"
		}
		b.Run(name, func(b *testing.B) {
			tr := New(4, 8)
			rng := rand.New(rand.NewSource(7))
			tape := make([]Element, 1<<16)
			for i := range tape {
				tape[i] = Element{Value: uint64(rng.Int63n(1 << 30)), Meta: uint64(rng.Intn(4096))}
			}
			for i := 0; i < tr.Cap()/2; i++ {
				tr.push(tape[i%len(tape)], w)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%64 < 32 {
					tr.push(tape[(i/64*32+i%64)%len(tape)], w)
				} else {
					tr.pop(w)
				}
			}
		})
	}
}

// TestHotLayout pins the layout claim: the hot array starts on a cache
// line and an order-m node spans 2m words, so an order-4 node is one
// 64-byte line and an order-2 node half of one.
func TestHotLayout(t *testing.T) {
	for _, shape := range []struct{ m, l, nodeBytes int }{{2, 3, 32}, {4, 2, 64}, {4, 8, 64}, {8, 2, 128}} {
		tr := New(shape.m, shape.l)
		if addr := uintptr(unsafe.Pointer(&tr.hot[0])); addr%64 != 0 {
			t.Errorf("m=%d l=%d: hot array at %#x, not 64-byte aligned", shape.m, shape.l, addr)
		}
		if got := len(tr.hot) * 8 / tr.numNodes; got != shape.nodeBytes {
			t.Errorf("m=%d l=%d: %d hot bytes per node, want %d", shape.m, shape.l, got, shape.nodeBytes)
		}
	}
}

// TestOpsZeroAlloc: Push, Pop and Peek allocate nothing, with and
// without a sojourn probe attached.
func TestOpsZeroAlloc(t *testing.T) {
	for _, instrumented := range []bool{false, true} {
		for _, m := range []int{2, 3, 4} {
			tr := New(m, 5)
			if instrumented {
				tr.Instrument(obs.NewRegistry(), "core")
			}
			for i := 0; i < tr.Cap()/2; i++ {
				tr.Push(Element{Value: uint64(i * 7919 % 1000), Meta: uint64(i)})
			}
			v := uint64(0)
			allocs := testing.AllocsPerRun(1000, func() {
				v = (v + 7919) % 1000
				if err := tr.Push(Element{Value: v, Meta: v}); err != nil {
					t.Fatal(err)
				}
				if _, err := tr.Peek(); err != nil {
					t.Fatal(err)
				}
				if _, err := tr.Pop(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("m=%d instrumented=%v: %v allocations per push+peek+pop, want 0", m, instrumented, allocs)
			}
		}
	}
}
