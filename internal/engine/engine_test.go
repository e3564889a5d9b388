package engine

import (
	"errors"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/refpq"
)

// smallConfig is a low-capacity engine for functional tests.
func smallConfig(shards int) Config {
	return Config{
		Shards: shards, Order: 2, Levels: 6, // tree capacity 126 per shard
		Routing: RouteRank, RankBits: 16,
	}
}

// TestRankRoutedPopsGloballySorted drives a sequential push/pop phase
// through a rank-routed engine and checks the strict merge yields a
// globally sorted drain, validated per shard against a refpq reference:
// with rank-range routing the popped value identifies the serving
// shard, so each pop can be checked against that shard's own reference
// minimum — the per-shard differential drain of the acceptance
// criteria. Like every per-tree test here it runs under the served
// tree's kind name, the one the checkpoint manifest records.
func TestRankRoutedPopsGloballySorted(t *testing.T) {
	t.Run(manifestKind, testRankRoutedPopsGloballySorted)
}

func testRankRoutedPopsGloballySorted(t *testing.T) {
	const shards = 4
	e, err := New(smallConfig(shards))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	width := (uint64(1) << 16) / shards
	shardOf := func(v uint64) int {
		s := v / width
		if s >= shards {
			s = shards - 1
		}
		return int(s)
	}
	refs := make([]*refpq.Queue, shards)
	for i := range refs {
		refs[i] = refpq.New()
	}

	rng := rand.New(rand.NewSource(7))
	pushed := 0
	for i := 0; i < 300; i++ {
		el := core.Element{Value: uint64(rng.Intn(1 << 16)), Meta: uint64(i)}
		err := e.Push(el)
		if err == nil {
			refs[shardOf(el.Value)].Push(refpq.Entry{Value: el.Value, Meta: el.Meta})
			pushed++
			continue
		}
		if !errors.Is(err, ErrBackpressure) && !errors.Is(err, core.ErrFull) {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if e.Len() != pushed {
		t.Fatalf("Len = %d after %d pushes", e.Len(), pushed)
	}

	prev := uint64(0)
	for i := 0; i < pushed; i++ {
		el, err := e.Pop()
		if err != nil {
			t.Fatalf("pop %d/%d: %v", i, pushed, err)
		}
		if el.Value < prev {
			t.Fatalf("pop %d: value %d after %d — merge not sorted", i, el.Value, prev)
		}
		prev = el.Value
		ref := refs[shardOf(el.Value)]
		if min := ref.MinValue(); el.Value != min {
			t.Fatalf("pop %d: value %d, shard reference min %d", i, el.Value, min)
		}
		if !ref.RemoveExact(refpq.Entry{Value: el.Value, Meta: el.Meta}) {
			t.Fatalf("pop %d: element (%d,%d) not in shard reference", i, el.Value, el.Meta)
		}
	}
	if _, err := e.Pop(); !errors.Is(err, core.ErrEmpty) {
		t.Fatalf("pop on empty engine = %v, want ErrEmpty", err)
	}
}

// TestHashRoutedShardExactness checks the per-shard exactness contract
// under hash routing: every pop returns a true minimum of some shard,
// and draining after Close yields a nondecreasing sequence per shard
// with nothing lost or invented.
func TestHashRoutedShardExactness(t *testing.T) {
	cfg := smallConfig(3)
	cfg.Routing = RouteHash
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
