package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/refpq"
)

// smallConfig is a low-capacity engine for functional tests.
func smallConfig(shards int) Config {
	return Config{Shards: shards, Order: 2, Levels: 6} // tree capacity 126 per shard
}

// TestPopsMatchReference is the sequential differential of the node's
// merge: at 1, 2 and 4 shards one caller submits mixed batches of
// pushes, pops and bounded pops — a growing phase that fills the engine,
// then a shrinking one that empties it — and a single refpq reference
// replays every batch in op order. Each pop must take the reference
// minimum (tied ranks are interchangeable, so ranks are compared and the
// exact element removed), a pop answers ErrEmpty and a bounded pop
// ErrMiss only when the reference says so, and a push is refused only
// with Cap() elements held.
func TestPopsMatchReference(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e, err := New(smallConfig(shards))
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			ref := refpq.New()
			rng := rand.New(rand.NewSource(int64(7 + shards)))
			var meta uint64
			pushes, pops, misses, refused := 0, 0, 0, 0
			const batches = 600
			for b := 0; b < batches; b++ {
				pushShare := 70
				if b >= batches/2 {
					pushShare = 25
				}
				ops := make([]Op, 1+rng.Intn(32))
				for i := range ops {
					switch r := rng.Intn(100); {
					case r < pushShare:
						meta++
						ops[i] = PushOp(core.Element{Value: uint64(rng.Intn(1 << 12)), Meta: meta})
					case r < pushShare+(100-pushShare)/2:
						ops[i] = PopOp()
					default:
						ops[i] = PopBoundedOp(uint64(rng.Intn(1 << 12)))
					}
				}
				for i, r := range e.Submit(ops) {
					op := ops[i]
					switch {
					case op.Kind == OpPush && r.Err == nil:
						ref.Push(refpq.Entry{Value: op.Elem.Value, Meta: op.Elem.Meta})
						pushes++
					case op.Kind == OpPush:
						if !errors.Is(r.Err, ErrBackpressure) || ref.Len() != e.Cap() {
							t.Fatalf("batch %d op %d: push refused with %v holding %d of %d", b, i, r.Err, ref.Len(), e.Cap())
						}
						refused++
					case r.Err == nil:
						if ref.Len() == 0 || r.Elem.Value != ref.MinValue() ||
							(op.Kind == OpPopBounded && r.Elem.Value > op.Elem.Value) ||
							!ref.RemoveExact(refpq.Entry{Value: r.Elem.Value, Meta: r.Elem.Meta}) {
							t.Fatalf("batch %d op %d (kind %d): popped %+v, not the reference minimum", b, i, op.Kind, r.Elem)
						}
						pops++
					case op.Kind == OpPop && errors.Is(r.Err, core.ErrEmpty):
						if ref.Len() != 0 {
							t.Fatalf("batch %d op %d: ErrEmpty with %d elements held", b, i, ref.Len())
						}
					case op.Kind == OpPopBounded && errors.Is(r.Err, ErrMiss):
						if ref.Len() != 0 && ref.MinValue() <= op.Elem.Value {
							t.Fatalf("batch %d op %d: bound %d missed a head of %d", b, i, op.Elem.Value, ref.MinValue())
						}
						misses++
					default:
						t.Fatalf("batch %d op %d (kind %d): %v", b, i, op.Kind, r.Err)
					}
				}
				if e.Len() != ref.Len() {
					t.Fatalf("batch %d: Len %d, reference %d", b, e.Len(), ref.Len())
				}
			}
			for ref.Len() > 0 {
				el, err := e.Pop()
				if err != nil || el.Value != ref.MinValue() || !ref.RemoveExact(refpq.Entry{Value: el.Value, Meta: el.Meta}) {
					t.Fatalf("drain: %+v %v, reference minimum %d", el, err, ref.MinValue())
				}
			}
			if _, err := e.Pop(); !errors.Is(err, core.ErrEmpty) {
				t.Fatalf("pop on a drained engine = %v, want ErrEmpty", err)
			}
			if refused == 0 || misses == 0 {
				t.Fatalf("%d pushes refused, %d bounded misses: a phase never filled or never missed", refused, misses)
			}
			t.Logf("%d pushes, %d pops, %d bounded misses, %d pushes refused at Cap()", pushes, pops, misses, refused)
		})
	}
}

// TestRankRoutedPopsGloballySorted drives a sequential push phase and
// then a full drain through a 4-shard engine. Every pop is routed to the
// shard holding the least-ranked head, so the drain comes out globally
// sorted and each pop equals the minimum of one refpq reference that
// holds everything pushed. Like every per-tree test here it runs under
// the served tree's kind name, the one the checkpoint manifest records.
func TestRankRoutedPopsGloballySorted(t *testing.T) {
	t.Run(manifestKind, testRankRoutedPopsGloballySorted)
}

func testRankRoutedPopsGloballySorted(t *testing.T) {
	e, err := New(smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ref := refpq.New()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		el := core.Element{Value: uint64(rng.Intn(1 << 16)), Meta: uint64(i)}
		if err := e.Push(el); err != nil {
			t.Fatalf("push %d with %d of %d held: %v", i, e.Len(), e.Cap(), err)
		}
		ref.Push(refpq.Entry{Value: el.Value, Meta: el.Meta})
	}
	if e.Len() != ref.Len() {
		t.Fatalf("Len = %d after %d pushes", e.Len(), ref.Len())
	}
	prev := uint64(0)
	for i := 0; ref.Len() > 0; i++ {
		el, err := e.Pop()
		if err != nil {
			t.Fatalf("pop %d: %v with %d held", i, err, ref.Len())
		}
		if el.Value < prev {
			t.Fatalf("pop %d: value %d after %d — merge not sorted", i, el.Value, prev)
		}
		prev = el.Value
		if min := ref.MinValue(); el.Value != min {
			t.Fatalf("pop %d: value %d, reference min %d", i, el.Value, min)
		}
		if !ref.RemoveExact(refpq.Entry{Value: el.Value, Meta: el.Meta}) {
			t.Fatalf("pop %d: element (%d,%d) not in the reference", i, el.Value, el.Meta)
		}
	}
	if _, err := e.Pop(); !errors.Is(err, core.ErrEmpty) {
		t.Fatalf("pop on empty engine = %v, want ErrEmpty", err)
	}
}

// TestHashRoutedShardExactness checks that a config still naming the
// deprecated RouteHash policy and a rank width — what older configs
// write — is accepted and changes nothing: every pop returns an element
// that was pushed, and draining after Close yields a nondecreasing
// sequence per shard with nothing lost or invented.
func TestHashRoutedShardExactness(t *testing.T) {
	cfg := smallConfig(3)
	cfg.Routing, cfg.RankBits = RouteHash, 16
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	want := map[core.Element]int{}
	pushed := 0
	for i := 0; i < 250; i++ {
		el := core.Element{Value: uint64(rng.Intn(1 << 16)), Meta: uint64(i)}
		if err := e.Push(el); err == nil {
			want[el]++
			pushed++
		}
	}
	for i := 0; i < pushed/3; i++ {
		el, err := e.Pop()
		if err != nil {
			t.Fatalf("pop %d: %v", i, err)
		}
		if want[el] == 0 {
			t.Fatalf("pop %d: element %+v never pushed", i, el)
		}
		want[el]--
	}
	e.Close()
	for s := 0; s < e.Shards(); s++ {
		got, err := e.ShardDrain(s)
		if err != nil {
			t.Fatalf("drain shard %d: %v", s, err)
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Value < got[j].Value }) {
			t.Fatalf("shard %d drain not sorted", s)
		}
		for _, el := range got {
			if want[el] == 0 {
				t.Fatalf("shard %d drained element %+v never pushed", s, el)
			}
			want[el]--
		}
	}
	for el, n := range want {
		if n != 0 {
			t.Fatalf("element %+v lost (%d copies unaccounted)", el, n)
		}
	}
}

// TestShardBalance is the balance probe on bmwd's default node (m=2
// l=11, two shards): 10^6 ops of 32 pushes + 32 pops per batch at half
// fill, uniform 30-bit ranks, one caller. Least-count pushes keep the
// two shard lengths together, so no pop answers ErrEmpty while the
// engine holds anything, no push is refused while it has room, and the
// shard lengths never drift apart by more than 64.
func TestShardBalance(t *testing.T) {
	e, err := New(Config{Shards: 2, Order: 2, Levels: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(1))
	ops := make([]Op, 64)
	res := make([]Result, 64)
	for i := range ops {
		ops[i] = PushOp(core.Element{})
	}
	held, maxSkew := 0, 0
	submit := func() {
		for i := range ops {
			if ops[i].Kind == OpPush {
				ops[i].Elem = core.Element{Value: rng.Uint64() >> 34, Meta: rng.Uint64() & 4095}
			}
		}
		e.SubmitInto(ops, res)
		for i, r := range res {
			switch {
			case r.Err == nil && ops[i].Kind == OpPush:
				held++
			case r.Err == nil:
				held--
			case ops[i].Kind == OpPush && held < e.Cap():
				t.Fatalf("push refused with %v holding %d of %d", r.Err, held, e.Cap())
			case ops[i].Kind == OpPop && held > 0:
				t.Fatalf("pop answered %v holding %d", r.Err, held)
			}
		}
		skew := e.ShardLen(0) - e.ShardLen(1)
		maxSkew = max(maxSkew, skew, -skew)
	}
	for held < e.Cap()/2 {
		submit()
	}
	for i := range ops {
		if i%2 == 1 {
			ops[i] = PopOp()
		}
	}
	const total = 1_000_000
	for n := 0; n < total; n += len(ops) {
		submit()
	}
	if held != e.Len() {
		t.Fatalf("caller counts %d held, Len %d", held, e.Len())
	}
	if maxSkew > 64 {
		t.Fatalf("shard lengths drifted %d apart", maxSkew)
	}
	t.Logf("max |ShardLen(0) - ShardLen(1)| over %d ops: %d; final lengths %d / %d", total, maxSkew, e.ShardLen(0), e.ShardLen(1))
}

// TestBackpressureTyped pins the non-blocking admission contract: a
// push against a full shard fails fast with ErrBackpressure (published
// almost-full) or core.ErrFull (raced to the queue), never blocking
// and never erroring untyped.
func TestBackpressureTyped(t *testing.T) {
	cfg := Config{Shards: 1, Order: 2, Levels: 2} // capacity 6
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	refused := 0
	for i := 0; i < 64; i++ {
		err := e.Push(core.Element{Value: uint64(i), Meta: uint64(i)})
		switch {
		case err == nil:
		case errors.Is(err, ErrBackpressure), errors.Is(err, core.ErrFull):
			refused++
		default:
			t.Fatalf("push %d: unexpected error %v", i, err)
		}
	}
	if refused == 0 {
		t.Fatal("no push was refused despite 64 pushes into capacity 6")
	}
	if e.Len() != 6 {
		t.Fatalf("Len = %d, want full capacity 6", e.Len())
	}
	// Draining relieves the backpressure.
	if _, err := e.Pop(); err != nil {
		t.Fatalf("pop under backpressure: %v", err)
	}
	if err := e.Push(core.Element{Value: 1, Meta: 99}); err != nil {
		t.Fatalf("push after drain: %v", err)
	}
}

// TestOverloadConfigIgnored pins the deprecated Overload shim as inert:
// an engine built with the benchmark's overload shape and a bound every
// execution exceeds admits every push. Backpressure is the only reason
// a push is refused.
func TestOverloadConfigIgnored(t *testing.T) {
	e, err := New(Config{Overload: Overload{HighFrac: 0.85, DrainLatencyHigh: time.Nanosecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 8; i++ {
		if err := e.Push(core.Element{Value: uint64(i), Meta: uint64(i)}); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
}

// TestSubmitBatchMixed checks the batched submit path end to end:
// mixed push/pop batches complete in order with one result per op.
func TestSubmitBatchMixed(t *testing.T) {
	e, err := New(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ops := make([]Op, 0, 32)
	for i := 0; i < 16; i++ {
		ops = append(ops, PushOp(core.Element{Value: uint64(100 - i), Meta: uint64(i)}))
	}
	res := e.Submit(ops)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("push op %d: %v", i, r.Err)
		}
	}
	pops := make([]Op, 16)
	for i := range pops {
		pops[i] = PopOp()
	}
	res = e.Submit(pops)
	got := 0
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("pop op %d: %v", i, r.Err)
		}
		got++
		_ = i
	}
	if got != 16 || e.Len() != 0 {
		t.Fatalf("popped %d, engine len %d; want 16 and 0", got, e.Len())
	}
}

// TestClosedEngine pins ErrClosed after Close.
func TestClosedEngine(t *testing.T) {
	e, err := New(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	if err := e.Push(core.Element{Value: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after close = %v, want ErrClosed", err)
	}
	if _, err := e.Pop(); !errors.Is(err, core.ErrEmpty) && !errors.Is(err, ErrClosed) {
		t.Fatalf("pop after close = %v, want ErrEmpty or ErrClosed", err)
	}
}

// TestSubmitThenUnderLock pins SubmitTraced's then: it runs exactly
// once per call, while the execution lock is held and after the
// batch's state is published — for a full batch, an empty one, and on
// a closed engine.
func TestSubmitThenUnderLock(t *testing.T) {
	e, err := New(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	then := func(wantLen int) func() {
		return func() {
			calls++
			if e.exec.TryLock() {
				e.exec.Unlock()
				t.Error("then ran without the execution lock")
			}
			if got := e.Len(); got != wantLen {
				t.Errorf("then saw length %d, want the published %d", got, wantLen)
			}
		}
	}
	push := PushOp(core.Element{Value: 7, Meta: 1})
	for _, tc := range []struct {
		name    string
		ops     []Op
		close   bool
		wantLen int
	}{
		{"batch", []Op{push, push, PopOp()}, false, 1},
		{"empty batch", nil, false, 1},
		{"closed engine", []Op{push}, true, 1},
		{"closed, empty batch", nil, true, 1},
	} {
		if tc.close {
			e.Close()
		}
		calls = 0
		e.SubmitTraced(tc.ops, make([]Result, len(tc.ops)), nil, then(tc.wantLen))
		if calls != 1 {
			t.Errorf("%s: then ran %d times, want once", tc.name, calls)
		}
		if !e.exec.TryLock() {
			t.Fatalf("%s: execution lock still held after SubmitTraced", tc.name)
		}
		e.exec.Unlock()
	}
}

// TestCheckpointRestore round-trips an engine through the per-shard
// checkpoint fan-out: push, close, checkpoint, restore into
// a fresh engine, and drain — the restored engine must yield exactly
// the surviving elements in merged sorted order. It runs under the
// served tree's kind name.
func TestCheckpointRestore(t *testing.T) { t.Run(manifestKind, testCheckpointRestore) }

func testCheckpointRestore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	cfg := smallConfig(3)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	want := []core.Element{}
	for i := 0; i < 150; i++ {
		el := core.Element{Value: uint64(rng.Intn(1 << 16)), Meta: uint64(i)}
		if err := e.Push(el); err == nil {
			want = append(want, el)
		}
	}
	// A few pops so the checkpoint is mid-lifecycle, not pristine.
	for i := 0; i < 20; i++ {
		el, err := e.Pop()
		if err != nil {
			t.Fatalf("pop %d: %v", i, err)
		}
		for j, w := range want {
			if w == el {
				want = append(want[:j], want[j+1:]...)
				break
			}
		}
	}
	e.Close()
	if err := e.Checkpoint(dir); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	cfg.RestoreDir = dir
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer r.Close()
	if r.Len() != len(want) {
		t.Fatalf("restored Len = %d, want %d", r.Len(), len(want))
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Value < want[j].Value })
	for i := range want {
		el, err := r.Pop()
		if err != nil {
			t.Fatalf("restored pop %d: %v", i, err)
		}
		if el.Value != want[i].Value {
			t.Fatalf("restored pop %d: value %d, want %d", i, el.Value, want[i].Value)
		}
	}
}

// TestNewRefusesOtherKinds: the deprecated Kind field admits only the
// core tree.
func TestNewRefusesOtherKinds(t *testing.T) {
	cfg := smallConfig(1)
	cfg.Kind = 1
	if e, err := New(cfg); err == nil {
		e.Close()
		t.Fatal("New accepted a non-core queue kind")
	}
}

// TestRestoreConfigMismatch pins the manifest guard: restoring a
// fan-out into a differently configured engine is refused.
func TestRestoreConfigMismatch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	e, err := New(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Push(core.Element{Value: 5}); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if err := e.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	bad := smallConfig(4) // shard count differs
	bad.RestoreDir = dir
	if _, err := New(bad); err == nil {
		t.Fatal("restore into mismatched shard count succeeded, want error")
	}
}

// TestApplyReplica drives one shard directly — the follower apply path
// — and checks dense LSN stamping, shard isolation, and
// element fidelity.
func TestApplyReplica(t *testing.T) {
	e, err := New(Config{Shards: 2, Order: 2, Levels: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const n = 10
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = PushOp(core.Element{Value: uint64(100 - i), Meta: uint64(i)})
	}
	results := make([]Result, n)
	if err := e.ApplyReplica(1, ops, results); err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("apply[%d]: %v", i, r.Err)
		}
		if r.Shard != 1 || r.LSN != uint64(i+1) {
			t.Fatalf("apply[%d]: shard %d lsn %d, want shard 1 lsn %d", i, r.Shard, r.LSN, i+1)
		}
	}
	if got := e.ShardLSN(1); got != n {
		t.Fatalf("ShardLSN(1) = %d, want %d", got, n)
	}
	if got := e.ShardLSN(0); got != 0 {
		t.Fatalf("ShardLSN(0) = %d — replica apply leaked across shards", got)
	}

	// Pops through the same path come back rank-ordered with their LSNs
	// continuing the chain.
	pops := make([]Op, n)
	for i := range pops {
		pops[i] = PopOp()
	}
	popRes := make([]Result, n)
	if err := e.ApplyReplica(1, pops, popRes); err != nil {
		t.Fatal(err)
	}
	for i, r := range popRes {
		if r.Err != nil {
			t.Fatalf("pop[%d]: %v", i, r.Err)
		}
		if want := uint64(100 - (n - 1) + i); r.Elem.Value != want {
			t.Fatalf("pop[%d] value %d, want %d", i, r.Elem.Value, want)
		}
		if r.LSN != uint64(n+i+1) {
			t.Fatalf("pop[%d] lsn %d, want %d", i, r.LSN, n+i+1)
		}
	}

	if err := e.ApplyReplica(5, ops, results); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	e.Close()
	if err := e.ApplyReplica(1, ops, results); !errors.Is(err, ErrClosed) {
		t.Fatalf("apply after close: %v, want ErrClosed", err)
	}
}
