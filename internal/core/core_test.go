package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/refpq"
)

func TestCapacityFormula(t *testing.T) {
	cases := []struct {
		m, l, want int
	}{
		{2, 1, 2},
		{2, 3, 14}, // 3-2 tree of Figure 2: 7 nodes, 14 elements
		{2, 11, 4094},
		{2, 15, 65534},
		{4, 6, 5460},
		{4, 8, 87380},
		{8, 4, 4680},
		{8, 5, 37448},
	}
	for _, c := range cases {
		if got := Capacity(c.m, c.l); got != c.want {
			t.Errorf("Capacity(%d,%d) = %d, want %d", c.m, c.l, got, c.want)
		}
		tr := New(c.m, c.l)
		if tr.Cap() != c.want {
			t.Errorf("New(%d,%d).Cap() = %d, want %d", c.m, c.l, tr.Cap(), c.want)
		}
	}
}

func TestNumNodes(t *testing.T) {
	if got := NumNodes(2, 3); got != 7 {
		t.Errorf("NumNodes(2,3) = %d, want 7", got)
	}
	if got := NumNodes(4, 8); got != 21845 {
		t.Errorf("NumNodes(4,8) = %d, want 21845", got)
	}
}

func TestInvalidShapePanics(t *testing.T) {
	for _, c := range []struct{ m, l int }{{1, 3}, {0, 1}, {2, 0}, {-2, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", c.m, c.l)
				}
			}()
			New(c.m, c.l)
		}()
	}
}

// TestPaperFigure2 replays the worked example of Figure 2: pushing
// 10, 17, 57, 21, 32, 43, 74, 33 into a 3-level 2-way tree, then push 28
// and pop. The paper's narration pins down the intermediate decisions:
// 28 enters the first sub-tree (root 10), displaces 32 at the second
// level, and 32 lands in the third level; the pop removes 10 and lifts 28
// then 32.
func TestPaperFigure2(t *testing.T) {
	tr := New(2, 3)
	for _, v := range []uint64{10, 17, 57, 21, 32, 43, 74, 33} {
		if err := tr.Push(Element{Value: v, Meta: v}); err != nil {
			t.Fatalf("push %d: %v", v, err)
		}
	}
	counts := tr.SubtreeCounts()
	if counts[0] != 4 || counts[1] != 4 {
		t.Fatalf("sub-tree counters after 8 pushes = %v, want [4 4]", counts)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	if err := tr.Push(Element{Value: 28, Meta: 28}); err != nil {
		t.Fatalf("push 28: %v", err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	counts = tr.SubtreeCounts()
	if counts[0] != 5 || counts[1] != 4 {
		t.Fatalf("sub-tree counters after push 28 = %v, want [5 4]", counts)
	}
	// 28 must now sit in the second level of the first sub-tree (node 1),
	// and 32 in the third level.
	found28 := false
	for i := 0; i < 2; i++ {
		if e, _, ok := tr.Slot(1, i); ok && e.Value == 28 {
			found28 = true
		}
	}
	if !found28 {
		t.Error("28 not found in node 1 (second level, first sub-tree)")
	}

	e, err := tr.Pop()
	if err != nil || e.Value != 10 {
		t.Fatalf("pop = %v, %v; want value 10", e, err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// After the pop, 28 is lifted into the root.
	found := false
	for i := 0; i < 2; i++ {
		if e, _, ok := tr.Slot(0, i); ok && e.Value == 28 {
			found = true
		}
	}
	if !found {
		t.Error("28 not lifted into root node after pop")
	}
	if e, _ := tr.Peek(); e.Value != 17 {
		t.Errorf("peek after pop = %d, want 17", e.Value)
	}
}

func TestPushPopSorted(t *testing.T) {
	tr := New(2, 4) // capacity 30
	vals := []uint64{9, 3, 7, 3, 1, 8, 2, 2, 6, 5, 4, 0}
	for _, v := range vals {
		if err := tr.Push(Element{Value: v}); err != nil {
			t.Fatal(err)
		}
	}
	var prev uint64
	for i := range vals {
		e, err := tr.Pop()
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && e.Value < prev {
			t.Fatalf("pop sequence not sorted: %d after %d", e.Value, prev)
		}
		prev = e.Value
	}
	if _, err := tr.Pop(); err != ErrEmpty {
		t.Errorf("pop on empty = %v, want ErrEmpty", err)
	}
}

func TestFullAndEmptyErrors(t *testing.T) {
	tr := New(2, 2) // capacity 6
	for i := 0; i < 6; i++ {
		if tr.AlmostFull() {
			t.Fatalf("AlmostFull before capacity at %d", i)
		}
		if err := tr.Push(Element{Value: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !tr.AlmostFull() {
		t.Error("AlmostFull not raised at capacity")
	}
	if err := tr.Push(Element{Value: 99}); err != ErrFull {
		t.Errorf("push on full = %v, want ErrFull", err)
	}
	if tr.Len() != 6 {
		t.Errorf("Len = %d, want 6", tr.Len())
	}
	// Fill-to-capacity is achievable ("all elements of BMW-Tree can be
	// filled if we want", Section 3.3) — verified by the loop above.
	for i := 0; i < 6; i++ {
		if _, err := tr.Pop(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Peek(); err != ErrEmpty {
		t.Errorf("peek on empty = %v, want ErrEmpty", err)
	}
}

func TestReset(t *testing.T) {
	tr := New(4, 3)
	for i := 0; i < 50; i++ {
		if err := tr.Push(Element{Value: uint64(i % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatalf("Len after Reset = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Pop(); err != ErrEmpty {
		t.Fatalf("pop after Reset = %v, want ErrEmpty", err)
	}
	// The tree must be fully reusable.
	if err := tr.Push(Element{Value: 5}); err != nil {
		t.Fatal(err)
	}
	if e, _ := tr.Peek(); e.Value != 5 {
		t.Fatalf("peek after reuse = %d", e.Value)
	}
}

// TestInsertionBalance checks the insertion-balance property of Section
// 3.3: with a push-only workload, sibling sub-tree counters at any full
// node differ by at most 1.
func TestInsertionBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range []struct{ m, l int }{{2, 6}, {4, 4}, {8, 3}} {
		tr := New(shape.m, shape.l)
		for i := 0; i < tr.Cap(); i++ {
			if err := tr.Push(Element{Value: uint64(rng.Intn(1000))}); err != nil {
				t.Fatal(err)
			}
			if imb := tr.MaxImbalance(); imb > 1 {
				t.Fatalf("m=%d l=%d: imbalance %d after %d pushes", shape.m, shape.l, imb, i+1)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPopCanUnbalance documents the counterpart: successive pops on the
// same sub-tree can locally unbalance the tree (Section 3.3), and new
// pushes re-balance it.
func TestPopCanUnbalance(t *testing.T) {
	tr := New(2, 5) // capacity 62
	// Push ascending values so pops drain the sub-tree holding the small
	// values.
	for i := 0; i < 40; i++ {
		if err := tr.Push(Element{Value: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		if _, err := tr.Pop(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	counts := tr.SubtreeCounts()
	t.Logf("sub-tree counters after 40 pushes, 16 pops: %v", counts)
	// New pushes move towards balance: the least-loaded sub-tree is always
	// chosen, so the gap cannot grow.
	gap := func() int {
		c := tr.SubtreeCounts()
		d := int(c[0]) - int(c[1])
		if d < 0 {
			d = -d
		}
		return d
	}
	before := gap()
	for i := 0; i < before; i++ {
		if err := tr.Push(Element{Value: 1000 + uint64(i)}); err != nil {
			t.Fatal(err)
		}
		if g := gap(); g > before {
			t.Fatalf("push increased imbalance: %d > %d", g, before)
		}
	}
}

// TestRandomAgainstReference drives random interleaved push/pop workloads
// and validates every pop against the reference queue, checking the
// structural invariants along the way.
func TestRandomAgainstReference(t *testing.T) {
	shapes := []struct{ m, l int }{{2, 3}, {2, 7}, {3, 4}, {4, 4}, {8, 3}, {5, 2}}
	for _, shape := range shapes {
		rng := rand.New(rand.NewSource(int64(shape.m*100 + shape.l)))
		tr := New(shape.m, shape.l)
		ref := refpq.New()
		ops := 4000
		if tr.Cap() < 100 {
			ops = 1000
		}
		for op := 0; op < ops; op++ {
			doPush := rng.Intn(2) == 0
			if tr.Len() == 0 {
				doPush = true
			}
			if tr.AlmostFull() {
				doPush = false
			}
			if doPush {
				e := Element{Value: uint64(rng.Intn(512)), Meta: uint64(op)}
				if err := tr.Push(e); err != nil {
					t.Fatalf("m=%d l=%d push: %v", shape.m, shape.l, err)
				}
				ref.Push(refpq.Entry{Value: e.Value, Meta: e.Meta})
			} else {
				e, err := tr.Pop()
				if err != nil {
					t.Fatalf("m=%d l=%d pop: %v", shape.m, shape.l, err)
				}
				if e.Value != ref.MinValue() {
					t.Fatalf("m=%d l=%d pop value %d, reference min %d", shape.m, shape.l, e.Value, ref.MinValue())
				}
				if !ref.RemoveExact(refpq.Entry{Value: e.Value, Meta: e.Meta}) {
					t.Fatalf("m=%d l=%d popped element (%d,%d) not in reference", shape.m, shape.l, e.Value, e.Meta)
				}
			}
			if op%97 == 0 {
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("m=%d l=%d after op %d: %v", shape.m, shape.l, op, err)
				}
			}
		}
		if tr.Len() != ref.Len() {
			t.Fatalf("m=%d l=%d size mismatch: %d vs %d", shape.m, shape.l, tr.Len(), ref.Len())
		}
	}
}

// TestQuickSortedDrain is a property-based test: any multiset of values
// pushed into any (small) tree shape drains in non-decreasing order and
// preserves the multiset.
func TestQuickSortedDrain(t *testing.T) {
	prop := func(vals []uint16, mRaw, lRaw uint8) bool {
		m := 2 + int(mRaw)%7 // 2..8
		l := 1 + int(lRaw)%4 // 1..4
		tr := New(m, l)
		if len(vals) > tr.Cap() {
			vals = vals[:tr.Cap()]
		}
		counts := map[uint64]int{}
		for _, v := range vals {
			if err := tr.Push(Element{Value: uint64(v)}); err != nil {
				return false
			}
			counts[uint64(v)]++
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Log(err)
			return false
		}
		var prev uint64
		for i := 0; i < len(vals); i++ {
			e, err := tr.Pop()
			if err != nil {
				return false
			}
			if i > 0 && e.Value < prev {
				return false
			}
			prev = e.Value
			counts[e.Value]--
			if counts[e.Value] < 0 {
				return false
			}
		}
		return tr.Len() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickHeapInvariant is a property-based test over random interleaved
// workloads: the heap and counter invariants hold after every operation.
func TestQuickHeapInvariant(t *testing.T) {
	prop := func(ops []int16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New(2+rng.Intn(4), 2+rng.Intn(3))
		for _, o := range ops {
			if o >= 0 && !tr.AlmostFull() {
				if err := tr.Push(Element{Value: uint64(o)}); err != nil {
					return false
				}
			} else if tr.Len() > 0 {
				if _, err := tr.Pop(); err != nil {
					return false
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateValues(t *testing.T) {
	tr := New(2, 4)
	for i := 0; i < 20; i++ {
		if err := tr.Push(Element{Value: 7, Meta: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[uint64]bool{}
	for i := 0; i < 20; i++ {
		e, err := tr.Pop()
		if err != nil {
			t.Fatal(err)
		}
		if e.Value != 7 {
			t.Fatalf("pop value %d, want 7", e.Value)
		}
		if seen[e.Meta] {
			t.Fatalf("meta %d popped twice", e.Meta)
		}
		seen[e.Meta] = true
	}
	if len(seen) != 20 {
		t.Fatalf("popped %d distinct metas, want 20", len(seen))
	}
}

func TestDepth(t *testing.T) {
	tr := New(2, 4)
	if tr.Depth() != 0 {
		t.Errorf("empty tree depth = %d", tr.Depth())
	}
	tr.Push(Element{Value: 1})
	tr.Push(Element{Value: 2})
	if tr.Depth() != 1 {
		t.Errorf("depth after 2 pushes = %d, want 1", tr.Depth())
	}
	tr.Push(Element{Value: 3})
	if tr.Depth() != 2 {
		t.Errorf("depth after 3 pushes = %d, want 2", tr.Depth())
	}
	// Balanced insertion keeps depth at the information-theoretic optimum:
	// after filling levels 1..k, depth is k.
	tr2 := New(2, 5)
	for i := 0; i < 6; i++ { // fills levels 1 and 2 (2 + 4 elements)
		tr2.Push(Element{Value: uint64(i)})
	}
	if tr2.Depth() != 2 {
		t.Errorf("depth after 6 balanced pushes = %d, want 2", tr2.Depth())
	}
	tr2.Push(Element{Value: 100})
	if tr2.Depth() != 3 {
		t.Errorf("depth after 7 balanced pushes = %d, want 3", tr2.Depth())
	}
}

func TestSingleLevelTree(t *testing.T) {
	tr := New(4, 1) // a single node of 4 elements
	for _, v := range []uint64{5, 1, 9, 3} {
		if err := tr.Push(Element{Value: v}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Push(Element{Value: 2}); err != ErrFull {
		t.Fatalf("push on full single node = %v, want ErrFull", err)
	}
	want := []uint64{1, 3, 5, 9}
	for _, w := range want {
		e, err := tr.Pop()
		if err != nil || e.Value != w {
			t.Fatalf("pop = %v,%v want %d", e, err, w)
		}
	}
}

func BenchmarkCorePush(b *testing.B) {
	for _, shape := range []struct{ m, l int }{{2, 11}, {4, 8}, {8, 5}} {
		b.Run(benchName(shape.m, shape.l), func(b *testing.B) {
			tr := New(shape.m, shape.l)
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tr.AlmostFull() {
					b.StopTimer()
					tr.Reset()
					b.StartTimer()
				}
				tr.Push(Element{Value: rng.Uint64() % 65536})
			}
		})
	}
}

// BenchmarkCorePushPop runs the ladder's core rung shape: rounds of 64
// alternating ops (32 push + 32 pop) at half fill, ranks uniform on 30
// bits. ns/op is per tree operation, comparable to core.rung_ns_per_op.
func BenchmarkCorePushPop(b *testing.B) {
	for _, shape := range []struct{ m, l int }{{2, 11}, {4, 8}, {8, 5}} {
		b.Run(benchName(shape.m, shape.l), func(b *testing.B) {
			tr := New(shape.m, shape.l)
			rng := rand.New(rand.NewSource(1))
			tape := make([]Element, 1<<16)
			for i := range tape {
				tape[i] = Element{Value: uint64(rng.Int63n(1 << 30)), Meta: uint64(rng.Intn(4096))}
			}
			for i := 0; i < tr.Cap()/2; i++ {
				tr.Push(tape[i%len(tape)])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					tr.Push(tape[i/2%len(tape)])
				} else {
					tr.Pop()
				}
			}
		})
	}
}

func benchName(m, l int) string {
	return "L" + itoa(l) + "-M" + itoa(m)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkCorePopRun times pops on the sawtooth shape of the ladder's
// engine_sawtooth_b256 workload: m = 4, l = 8, runs of 256 pops from
// 90 % fill down to 10 %, then pushes (untimed) back up, ranks uniform
// on 30 bits. "pop" calls Pop per op, "run" hands each run to PopRun;
// ns/op is per popped element.
func BenchmarkCorePopRun(b *testing.B) {
	for _, run := range []bool{false, true} {
		name := "pop"
		if run {
			name = "run"
		}
		b.Run(name, func(b *testing.B) {
			tr := New(4, 8)
			rng := rand.New(rand.NewSource(1))
			tape := make([]Element, 1<<16)
			for i := range tape {
				tape[i] = Element{Value: uint64(rng.Int63n(1 << 30)), Meta: uint64(rng.Intn(4096))}
			}
			lo, hi := tr.Cap()/10, tr.Cap()*9/10
			pos := 0
			refill := func() {
				for tr.Len() < hi {
					tr.Push(tape[pos%len(tape)])
					pos++
				}
			}
			refill()
			var out [256]Element
			b.ResetTimer()
			for popped := 0; popped < b.N; {
				if tr.Len()-len(out) < lo {
					b.StopTimer()
					refill()
					b.StartTimer()
				}
				if run {
					popped += tr.PopRun(out[:], math.MaxUint64)
					continue
				}
				for i := range out {
					out[i], _ = tr.Pop()
				}
				popped += len(out)
			}
		})
	}
}
