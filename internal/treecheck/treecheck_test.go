package treecheck

import (
	"errors"
	"strings"
	"testing"
)

// fakeState is a hand-built tree state for violation injection:
// a 2-level, 2-order tree (nodes 0..2, slots 0..1 each).
type fakeState struct {
	m, l  int
	size  int
	slots map[[2]int][2]uint64 // (node, slot) -> (value, count)
}

func (f *fakeState) Order() int  { return f.m }
func (f *fakeState) Levels() int { return f.l }
func (f *fakeState) Len() int    { return f.size }
func (f *fakeState) SlotState(n, i int) (uint64, uint32, bool) {
	s, ok := f.slots[[2]int{n, i}]
	if !ok {
		return 0, 0, false
	}
	return s[0], uint32(s[1]), s[1] != 0
}

func valid22() *fakeState {
	return &fakeState{
		m: 2, l: 2, size: 3,
		slots: map[[2]int][2]uint64{
			{0, 0}: {5, 2}, // root slot 0: value 5, sub-tree of 2
			{0, 1}: {7, 1}, // root slot 1: value 7, alone
			{1, 0}: {9, 1}, // child of slot 0
		},
	}
}

func TestValidTree(t *testing.T) {
	if err := Check(valid22()); err != nil {
		t.Fatal(err)
	}
}

func TestHeapViolation(t *testing.T) {
	f := valid22()
	f.slots[[2]int{1, 0}] = [2]uint64{3, 1} // child smaller than parent 5
	err := Check(f)
	if err == nil || !strings.Contains(err.Error(), "heap violation") {
		t.Fatalf("err = %v", err)
	}
}

func TestCounterViolation(t *testing.T) {
	f := valid22()
	f.slots[[2]int{0, 0}] = [2]uint64{5, 3} // claims 3, actual sub-tree 2
	err := Check(f)
	if err == nil || !strings.Contains(err.Error(), "counter violation") {
		t.Fatalf("err = %v", err)
	}
}

func TestOrphanBelowEmpty(t *testing.T) {
	f := valid22()
	f.slots[[2]int{2, 1}] = [2]uint64{9, 1} // element below the empty... root slot 1 has no children space? node 2 is slot 1's child
	f.size = 4
	// Root slot 1 counter stays 1 while node 2 holds an element: both a
	// counter violation and an orphan; the checker reports the first it
	// finds walking slot order.
	if err := Check(f); err == nil {
		t.Fatal("corrupted tree passed")
	}
	// Pure orphan: empty root slot 1 with an element below it.
	f2 := valid22()
	delete(f2.slots, [2]int{0, 1})
	f2.slots[[2]int{2, 0}] = [2]uint64{9, 1}
	f2.size = 3
	err := Check(f2)
	if err == nil || !strings.Contains(err.Error(), "orphan") {
		t.Fatalf("err = %v", err)
	}
}

func TestSizeMismatch(t *testing.T) {
	f := valid22()
	f.size = 7
	err := Check(f)
	if err == nil || !strings.Contains(err.Error(), "sum") {
		t.Fatalf("err = %v", err)
	}
}

func TestEmptyTree(t *testing.T) {
	f := &fakeState{m: 3, l: 2, size: 0, slots: map[[2]int][2]uint64{}}
	if err := Check(f); err != nil {
		t.Fatal(err)
	}
}

// TestTypedViolations checks that each violation class surfaces as a
// *Violation with the right Kind and location, so callers can classify
// detections.
func TestTypedViolations(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(f *fakeState)
		kind   Kind
		node   int
		slot   int
	}{
		{"heap", func(f *fakeState) { f.slots[[2]int{1, 0}] = [2]uint64{3, 1} }, HeapViolation, 0, 0},
		{"counter", func(f *fakeState) { f.slots[[2]int{0, 0}] = [2]uint64{5, 3} }, CounterViolation, 0, 0},
		{"orphan", func(f *fakeState) {
			delete(f.slots, [2]int{0, 1})
			f.slots[[2]int{2, 0}] = [2]uint64{9, 1}
		}, OrphanViolation, 2, 0},
		{"size", func(f *fakeState) { f.size = 7 }, SizeViolation, -1, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := valid22()
			tc.mutate(f)
			err := Check(f)
			var v *Violation
			if !errors.As(err, &v) {
				t.Fatalf("err %T is not *Violation: %v", err, err)
			}
			if v.Kind != tc.kind {
				t.Fatalf("kind = %v want %v", v.Kind, tc.kind)
			}
			if v.Node != tc.node || v.Slot != tc.slot {
				t.Fatalf("location = (%d,%d) want (%d,%d)", v.Node, v.Slot, tc.node, tc.slot)
			}
		})
	}
}

// TestKindString pins the class names used in soak reports.
func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		HeapViolation:    "heap violation",
		CounterViolation: "counter violation",
		OrphanViolation:  "orphan element",
		SizeViolation:    "size mismatch",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q want %q", int(k), k.String(), want)
		}
	}
}

// TestPhantomCounterViolation models a fault flipping an empty slot's
// counter to nonzero with ok=false semantics preserved by the state
// view — the checker must flag it.
func TestPhantomCounterViolation(t *testing.T) {
	f := valid22()
	// fakeState reports ok=count!=0, so emulate a phantom element the
	// way a flipped counter bit appears through SlotState: an occupied
	// slot whose counter disagrees with the (empty) sub-tree below.
	f.slots[[2]int{0, 1}] = [2]uint64{7, 9}
	err := Check(f)
	var v *Violation
	if !errors.As(err, &v) || v.Kind != CounterViolation {
		t.Fatalf("phantom counter not classified: %v", err)
	}
}
