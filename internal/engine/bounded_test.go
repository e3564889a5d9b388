package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestPopBoundedHonoursBound pins the conditional pop: a head at or
// under the bound is popped exactly like a plain
// pop (element, shard, next LSN), a head over it — or an empty queue —
// is a miss that leaves length, LSN and the empties counter alone.
// It runs under the served tree's kind name.
func TestPopBoundedHonoursBound(t *testing.T) { t.Run(manifestKind, testPopBoundedHonoursBound) }

func testPopBoundedHonoursBound(t *testing.T) {
	e, err := New(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	reg := obs.NewRegistry()
	e.Instrument(reg, "eng")
	empties := func() uint64 { return reg.Counter("eng_shard0_empty_total").Value() }

	miss := func(bound uint64, when string) {
		t.Helper()
		lsn, n := e.ShardLSN(0), e.Len()
		res := e.Submit([]Op{PopBoundedOp(bound)})
		if !errors.Is(res[0].Err, ErrMiss) || res[0].LSN != 0 {
			t.Fatalf("%s: bounded pop(%d) = %+v, want ErrMiss with LSN 0", when, bound, res[0])
		}
		if e.ShardLSN(0) != lsn || e.Len() != n {
			t.Fatalf("%s: miss moved LSN %d->%d or len %d->%d", when, lsn, e.ShardLSN(0), n, e.Len())
		}
	}

	miss(math.MaxUint64, "empty queue")
	for i, v := range []uint64{30, 10, 20} {
		if res := e.Submit([]Op{PushOp(core.Element{Value: v, Meta: uint64(i)})}); res[0].Err != nil {
			t.Fatal(res[0].Err)
		}
	}
	miss(9, "head above bound")

	// Inclusive bound, and one batch stops at the first element
	// over it: 10 and 20 come out, the third op misses on 30.
	lsn := e.ShardLSN(0)
	res := e.Submit([]Op{PopBoundedOp(10), PopBoundedOp(25), PopBoundedOp(25)})
	for i, want := range []uint64{10, 20} {
		if res[i].Err != nil || res[i].Elem.Value != want || res[i].Shard != 0 || res[i].LSN != lsn+uint64(i)+1 {
			t.Fatalf("hit %d = %+v, want %d at LSN %d", i, res[i], want, lsn+uint64(i)+1)
		}
	}
	if !errors.Is(res[2].Err, ErrMiss) {
		t.Fatalf("third op = %+v, want ErrMiss", res[2])
	}
	if e.Len() != 1 || e.ShardLSN(0) != lsn+2 {
		t.Fatalf("after batch: len %d LSN %d, want 1 and %d", e.Len(), e.ShardLSN(0), lsn+2)
	}
	if got := empties(); got != 0 {
		t.Fatalf("misses counted as %d empty pops", got)
	}
}

// TestBatchPopsGloballySorted is the multi-shard half: at 2 and 4
// shards a sequential caller drains the engine with batches of K = 8
// pops — plain, and separately bounded at MaxUint64 — and every batch
// yields the next K elements of the global order, with no ErrMiss or
// ErrEmpty until the engine is empty. A pop inside a batch takes the
// smallest head across shards at its turn, so nothing stops a batch at a
// shard boundary. Then bounded pops against a refilled engine miss
// exactly when the global head ranks above their bound.
func TestBatchPopsGloballySorted(t *testing.T) {
	for _, shards := range []int{2, 4} {
		for _, kind := range []OpKind{OpPop, OpPopBounded} {
			name := fmt.Sprintf("shards=%d/%s", shards, map[OpKind]string{OpPop: "pop", OpPopBounded: "bounded"}[kind])
			t.Run(name, func(t *testing.T) { testBatchPopsGloballySorted(t, shards, kind) })
		}
	}
}

func testBatchPopsGloballySorted(t *testing.T, shards int, kind OpKind) {
	e, err := New(smallConfig(shards))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	rng := rand.New(rand.NewSource(int64(11 * shards)))
	fill := func() []uint64 {
		var want []uint64
		for i := 0; i < 60*shards; i++ {
			v := rng.Uint64() % (1 << 16)
			if res := e.Submit([]Op{PushOp(core.Element{Value: v, Meta: uint64(i)})}); res[0].Err != nil {
				t.Fatal(res[0].Err)
			}
			want = append(want, v)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := 0; i < shards; i++ {
			if e.ShardLen(i) == 0 {
				t.Fatalf("shard %d empty: nothing to merge across", i)
			}
		}
		return want
	}

	want := fill()
	const k = 8
	ops := make([]Op, k)
	for i := range ops {
		ops[i] = Op{Kind: kind, Elem: core.Element{Value: math.MaxUint64}}
	}
	var got []uint64
	for len(got) < len(want) {
		for _, r := range e.Submit(ops) {
			switch {
			case len(got) == len(want) && kind == OpPop && errors.Is(r.Err, core.ErrEmpty):
			case len(got) == len(want) && kind == OpPopBounded && errors.Is(r.Err, ErrMiss):
			case len(got) < len(want) && r.Err == nil:
				got = append(got, r.Elem.Value)
			default:
				t.Fatalf("pop %d of %d: %+v", len(got), len(want), r)
			}
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain[%d] = %d, want %d (not globally sorted)", i, got[i], want[i])
		}
	}
	if e.Len() != 0 {
		t.Fatalf("Len %d after the drain", e.Len())
	}
	if kind == OpPop {
		return
	}

	// Bounds straddling the elements still held: each is one of them, or
	// one below, so hits and misses both happen within one batch.
	ref := fill()
	hits, misses := 0, 0
	for len(ref) > 0 {
		for i := range ops {
			v := ref[min(i, len(ref)-1)]
			ops[i] = PopBoundedOp(v - uint64(rng.Intn(2)))
		}
		for i, r := range e.Submit(ops) {
			bound := ops[i].Elem.Value
			switch {
			case len(ref) > 0 && ref[0] <= bound:
				if r.Err != nil || r.Elem.Value != ref[0] {
					t.Fatalf("bound %d with head %d: %+v, want a hit", bound, ref[0], r)
				}
				ref = ref[1:]
				hits++
			case !errors.Is(r.Err, ErrMiss):
				t.Fatalf("bound %d: %+v, want ErrMiss", bound, r)
			default:
				misses++
			}
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("%d hits, %d misses: the bounds exercised one outcome only", hits, misses)
	}
}
